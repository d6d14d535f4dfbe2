#include "support/pair_dependencies.h"

#include "sp/bfs_spd.h"

namespace mhbc {

namespace {

/// The graph a "distance to t" BFS must run on: the graph itself when
/// undirected, its transpose when directed (dist(v, t) in G equals
/// dist(t, v) in Gᵀ). The transpose view borrows the graph's in-CSR
/// arrays, so it must not outlive `graph`.
CsrGraph ReverseViewFor(const CsrGraph& graph) {
  if (!graph.directed()) return graph;
  return CsrGraph::WrapExternal(graph.raw_in_offsets(),
                                graph.raw_in_adjacency(), {}, graph.name(),
                                /*directed=*/true);
}

}  // namespace

std::vector<double> PairDependencies(const CsrGraph& graph, VertexId s,
                                     VertexId t) {
  MHBC_DCHECK(s < graph.num_vertices());
  MHBC_DCHECK(t < graph.num_vertices());
  std::vector<double> result(graph.num_vertices(), 0.0);
  if (s == t) return result;
  const CsrGraph reverse = ReverseViewFor(graph);
  BfsSpd from_s(graph);
  BfsSpd from_t(reverse);
  from_s.Run(s);
  from_t.Run(t);
  const auto& ds = from_s.dag();
  const auto& dt = from_t.dag();
  if (ds.dist[t] == kUnreachedDistance) return result;
  const std::uint32_t dist_st = ds.dist[t];
  const double sigma_st = static_cast<double>(ds.sigma[t]);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (v == s || v == t) continue;
    if (ds.dist[v] == kUnreachedDistance || dt.dist[v] == kUnreachedDistance)
      continue;
    if (ds.dist[v] + dt.dist[v] == dist_st) {
      result[v] = static_cast<double>(ds.sigma[v]) *
                  static_cast<double>(dt.sigma[v]) / sigma_st;
    }
  }
  return result;
}

SigmaCount CountPathsThrough(const CsrGraph& graph, VertexId s, VertexId t,
                             VertexId v) {
  MHBC_DCHECK(v != s && v != t);
  const CsrGraph reverse = ReverseViewFor(graph);
  BfsSpd from_s(graph);
  BfsSpd from_t(reverse);
  from_s.Run(s);
  from_t.Run(t);
  const auto& ds = from_s.dag();
  const auto& dt = from_t.dag();
  if (ds.dist[t] == kUnreachedDistance) return 0;
  if (ds.dist[v] == kUnreachedDistance || dt.dist[v] == kUnreachedDistance)
    return 0;
  if (ds.dist[v] + dt.dist[v] != ds.dist[t]) return 0;
  return ds.sigma[v] * dt.sigma[v];
}

}  // namespace mhbc
