#include "sp/dependency.h"

namespace mhbc {

DependencyAccumulator::DependencyAccumulator(const CsrGraph& graph,
                                             ThreadPool* /*ignored*/) {
  delta_.assign(graph.num_vertices(), 0.0);
  touched_.reserve(graph.num_vertices());
}

const std::vector<double>& DependencyAccumulator::Accumulate(
    const ShortestPathDag& dag, VertexId scope) {
  for (VertexId v : touched_) delta_[v] = 0.0;
  touched_.assign(dag.order.begin(), dag.order.end());
  // Levels at or above d(s, r) cannot feed delta_s(r); an unreached scope
  // vertex stops the walk before any level.
  MHBC_DCHECK(scope == kInvalidVertex || !dag.weighted);
  const std::size_t stop_level =
      scope == kInvalidVertex ? 0 : std::size_t{dag.dist[scope]} + 1;
  // The sweep walks the recorded SPD edges only; no non-DAG edge is
  // touched.
  ForEachDeepestFirst(
      dag,
      [this, &dag](VertexId w) {
        const std::span<const VertexId> parents = dag.predecessors(w);
        if (parents.empty()) return;
        const double coeff =
            (1.0 + delta_[w]) / static_cast<double>(dag.sigma[w]);
        for (VertexId v : parents) {
          delta_[v] += static_cast<double>(dag.sigma[v]) * coeff;
        }
      },
      stop_level);
  delta_[dag.source] = 0.0;  // dependency of s on itself is undefined/0
  return delta_;
}

}  // namespace mhbc
