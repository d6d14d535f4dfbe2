#pragma once

#include <cstdint>
#include <string>

#include "graph/csr_graph.h"

/// \file
/// Dataset-statistics computations backing experiment E1 (the standard
/// "Table 1: datasets" of the betweenness-approximation literature).

namespace mhbc {

/// Summary row for one dataset.
struct GraphStats {
  std::string name;
  VertexId num_vertices = 0;
  std::uint64_t num_edges = 0;
  double density = 0.0;          // 2m / (n(n-1))
  std::uint32_t min_degree = 0;
  std::uint32_t max_degree = 0;
  double avg_degree = 0.0;
  std::uint32_t diameter = 0;    // exact if exact_diameter, else lower bound
  bool exact_diameter = false;
  bool connected = false;
  bool weighted = false;
  /// Number of triangles (3-cliques) in the graph.
  std::uint64_t triangles = 0;
  /// Global clustering coefficient: 3 * triangles / #open-or-closed wedges.
  double global_clustering = 0.0;
  /// Average of per-vertex local clustering coefficients (degree < 2 counts
  /// as 0, the NetworkX convention).
  double avg_local_clustering = 0.0;
};

/// Counts triangles in O(sum of deg^2) via neighbor-intersection on the
/// sorted CSR adjacency. Returns the triangle count and fills per-vertex
/// triangle counts if `per_vertex` is non-null.
std::uint64_t CountTriangles(const CsrGraph& graph,
                             std::vector<std::uint64_t>* per_vertex = nullptr);

/// Global clustering coefficient (transitivity).
double GlobalClusteringCoefficient(const CsrGraph& graph);

/// Mean local clustering coefficient.
double AverageLocalClustering(const CsrGraph& graph);

/// Computes stats. Diameter is exact when n <= `exact_diameter_limit`
/// (all-BFS), otherwise a lower bound from `sweep_probes` double-sweep
/// BFS probes. Hop-count diameter is reported even for weighted graphs (it
/// is the quantity the samplers' VC bound uses).
GraphStats ComputeGraphStats(const CsrGraph& graph,
                             VertexId exact_diameter_limit = 2048,
                             std::uint32_t sweep_probes = 8,
                             std::uint64_t seed = 0x5eed);

/// Exact hop diameter by BFS from every vertex. O(nm); small graphs only.
/// Returns 0 for single-vertex graphs; requires a connected graph.
std::uint32_t ExactDiameter(const CsrGraph& graph);

/// Diameter lower bound via repeated double-sweep BFS.
std::uint32_t DiameterLowerBound(const CsrGraph& graph,
                                 std::uint32_t probes, std::uint64_t seed);

/// Vertex-diameter proxy used by the Riondato-Kornaropoulos sample bound:
/// number of vertices on a longest found shortest path (hops + 1), from
/// double-sweep probes (upper-bounded estimate is fine for the bound's
/// log2 argument; we return the probe maximum + 1).
std::uint32_t ApproxVertexDiameter(const CsrGraph& graph, std::uint32_t probes,
                                   std::uint64_t seed);

}  // namespace mhbc
