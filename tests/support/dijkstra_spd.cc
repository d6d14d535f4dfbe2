#include "support/dijkstra_spd.h"

#include <cmath>
#include <queue>
#include <utility>

namespace mhbc {

DijkstraSpd::DijkstraSpd(const CsrGraph& graph, double tie_epsilon)
    : graph_(&graph), tie_epsilon_(tie_epsilon) {
  MHBC_DCHECK(tie_epsilon_ >= 0.0);
  const VertexId n = graph.num_vertices();
  dag_.wdist.assign(n, -1.0);  // -1 marks unreached
  dag_.sigma.assign(n, 0);
  dag_.order.reserve(n);
  dag_.weighted = true;
  // Parent-list capacity is the in-degree (a parent reaches v over an
  // in-edge), so the graph's in-CSR offsets ARE the begin offsets —
  // reference them instead of rebuilding the array; they alias the
  // out-CSR on undirected graphs.
  dag_.pred_begin = graph.raw_in_offsets().data();
  dag_.pred_count.assign(n, 0);
  dag_.pred_storage.assign(graph.raw_in_adjacency().size(), kInvalidVertex);
  settled_.assign(n, 0);
}

bool DijkstraSpd::Equal(double a, double b) const {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= tie_epsilon_ * scale;
}

void DijkstraSpd::Run(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  for (VertexId v : dag_.order) {
    dag_.wdist[v] = -1.0;
    dag_.sigma[v] = 0;
    dag_.pred_count[v] = 0;
    settled_[v] = 0;
  }
  dag_.order.clear();
  dag_.source = source;

  using HeapEntry = std::pair<double, VertexId>;  // (dist, vertex)
  // Lazy deletion: stale heap entries are skipped on pop.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;

  dag_.wdist[source] = 0.0;
  dag_.sigma[source] = 1;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [du, u] = heap.top();
    heap.pop();
    if (settled_[u]) continue;
    if (!Equal(du, dag_.wdist[u])) continue;  // stale entry
    settled_[u] = 1;
    dag_.order.push_back(u);
    const auto nbrs = graph_->neighbors(u);
    const auto wts = graph_->weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      const double w = graph_->weighted() ? wts[i] : 1.0;
      const double candidate = dag_.wdist[u] + w;
      if (settled_[v]) continue;
      const double current = dag_.wdist[v];
      if (current < 0.0 || candidate < current - tie_epsilon_ * candidate) {
        // Strict improvement: reset predecessor set.
        dag_.wdist[v] = candidate;
        dag_.sigma[v] = dag_.sigma[u];
        dag_.pred_count[v] = 1;
        dag_.pred_storage[dag_.pred_begin[v]] = u;
        heap.emplace(candidate, v);
      } else if (Equal(candidate, current)) {
        // Tie: u is an additional predecessor (each neighbor appears once
        // per pass, so no duplicate check is needed).
        dag_.sigma[v] += dag_.sigma[u];
        MHBC_DCHECK(dag_.pred_count[v] < graph_->in_degree(v));
        dag_.pred_storage[dag_.pred_begin[v] + dag_.pred_count[v]] = u;
        ++dag_.pred_count[v];
      }
    }
  }
}

}  // namespace mhbc
