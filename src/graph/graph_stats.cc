#include "graph/graph_stats.h"

#include <algorithm>
#include <vector>

#include "graph/graph_algos.h"
#include "util/rng.h"

namespace mhbc {

namespace {

/// BFS from `source`; returns (eccentricity, farthest vertex). Distances are
/// hop counts; unreachable vertices are ignored (callers ensure
/// connectivity where it matters).
std::pair<std::uint32_t, VertexId> BfsEccentricity(const CsrGraph& graph,
                                                   VertexId source) {
  const VertexId n = graph.num_vertices();
  std::vector<std::uint32_t> dist(n, kUnreachedDistance);
  std::vector<VertexId> queue;
  queue.reserve(n);
  queue.push_back(source);
  dist[source] = 0;
  std::size_t head = 0;
  std::uint32_t ecc = 0;
  VertexId farthest = source;
  while (head < queue.size()) {
    const VertexId u = queue[head++];
    for (VertexId v : graph.neighbors(u)) {
      if (dist[v] == kUnreachedDistance) {
        dist[v] = dist[u] + 1;
        if (dist[v] > ecc) {
          ecc = dist[v];
          farthest = v;
        }
        queue.push_back(v);
      }
    }
  }
  return {ecc, farthest};
}

}  // namespace

std::uint64_t CountTriangles(const CsrGraph& graph,
                             std::vector<std::uint64_t>* per_vertex) {
  const VertexId n = graph.num_vertices();
  if (per_vertex != nullptr) per_vertex->assign(n, 0);
  std::uint64_t total = 0;
  for (VertexId u = 0; u < n; ++u) {
    const auto nu = graph.neighbors(u);
    for (VertexId v : nu) {
      if (v <= u) continue;
      // Count common neighbors w > v: each triangle (u, v, w) once.
      const auto nv = graph.neighbors(v);
      std::size_t i = 0, j = 0;
      while (i < nu.size() && j < nv.size()) {
        if (nu[i] < nv[j]) {
          ++i;
        } else if (nu[i] > nv[j]) {
          ++j;
        } else {
          const VertexId w = nu[i];
          if (w > v) {
            ++total;
            if (per_vertex != nullptr) {
              ++(*per_vertex)[u];
              ++(*per_vertex)[v];
              ++(*per_vertex)[w];
            }
          }
          ++i;
          ++j;
        }
      }
    }
  }
  return total;
}

double GlobalClusteringCoefficient(const CsrGraph& graph) {
  const std::uint64_t triangles = CountTriangles(graph);
  std::uint64_t wedges = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const std::uint64_t d = graph.degree(v);
    wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(triangles) / static_cast<double>(wedges);
}

double AverageLocalClustering(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  if (n == 0) return 0.0;
  std::vector<std::uint64_t> per_vertex;
  CountTriangles(graph, &per_vertex);
  double acc = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t d = graph.degree(v);
    if (d < 2) continue;
    const double wedges = static_cast<double>(d) * (static_cast<double>(d) - 1.0) / 2.0;
    acc += static_cast<double>(per_vertex[v]) / wedges;
  }
  return acc / static_cast<double>(n);
}

std::uint32_t ExactDiameter(const CsrGraph& graph) {
  MHBC_DCHECK(graph.num_vertices() > 0);
  std::uint32_t diameter = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    diameter = std::max(diameter, BfsEccentricity(graph, v).first);
  }
  return diameter;
}

std::uint32_t DiameterLowerBound(const CsrGraph& graph, std::uint32_t probes,
                                 std::uint64_t seed) {
  MHBC_DCHECK(graph.num_vertices() > 0);
  Rng rng(seed);
  std::uint32_t best = 0;
  for (std::uint32_t p = 0; p < probes; ++p) {
    const VertexId start = rng.NextVertex(graph.num_vertices());
    // Double sweep: BFS to the farthest vertex, then BFS again from it.
    const auto [ecc1, far1] = BfsEccentricity(graph, start);
    const auto [ecc2, far2] = BfsEccentricity(graph, far1);
    (void)far2;
    best = std::max({best, ecc1, ecc2});
  }
  return best;
}

std::uint32_t ApproxVertexDiameter(const CsrGraph& graph,
                                   std::uint32_t probes, std::uint64_t seed) {
  return DiameterLowerBound(graph, probes, seed) + 1;
}

GraphStats ComputeGraphStats(const CsrGraph& graph,
                             VertexId exact_diameter_limit,
                             std::uint32_t sweep_probes,
                             std::uint64_t seed) {
  GraphStats stats;
  stats.name = graph.name();
  stats.num_vertices = graph.num_vertices();
  stats.num_edges = graph.num_edges();
  stats.weighted = graph.weighted();
  const double n = static_cast<double>(stats.num_vertices);
  if (stats.num_vertices >= 2) {
    stats.density = 2.0 * static_cast<double>(stats.num_edges) / (n * (n - 1.0));
  }
  std::uint32_t min_deg = 0, max_deg = 0;
  std::uint64_t total_deg = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const std::uint32_t d = graph.degree(v);
    if (v == 0) {
      min_deg = d;
      max_deg = d;
    } else {
      min_deg = std::min(min_deg, d);
      max_deg = std::max(max_deg, d);
    }
    total_deg += d;
  }
  stats.min_degree = min_deg;
  stats.max_degree = max_deg;
  stats.avg_degree = stats.num_vertices == 0
                         ? 0.0
                         : static_cast<double>(total_deg) / n;
  stats.connected = IsConnected(graph);
  if (stats.num_vertices == 0) return stats;
  stats.triangles = CountTriangles(graph);
  stats.global_clustering = GlobalClusteringCoefficient(graph);
  stats.avg_local_clustering = AverageLocalClustering(graph);
  if (stats.connected && stats.num_vertices <= exact_diameter_limit) {
    stats.diameter = ExactDiameter(graph);
    stats.exact_diameter = true;
  } else {
    stats.diameter = DiameterLowerBound(graph, sweep_probes, seed);
    stats.exact_diameter = false;
  }
  return stats;
}

}  // namespace mhbc
