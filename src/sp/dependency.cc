#include "sp/dependency.h"

namespace mhbc {

DependencyAccumulator::DependencyAccumulator(const CsrGraph& graph,
                                             ThreadPool* /*ignored*/) {
  delta_.assign(graph.num_vertices(), 0.0);
  touched_.reserve(graph.num_vertices());
}

const std::vector<double>& DependencyAccumulator::Accumulate(
    const ShortestPathDag& dag) {
  for (VertexId v : touched_) delta_[v] = 0.0;
  touched_.assign(dag.order.begin(), dag.order.end());
  // The sweep walks the recorded SPD edges only; no non-DAG edge is
  // touched.
  ForEachDeepestFirst(dag, [this, &dag](VertexId w) {
    const double coeff = (1.0 + delta_[w]) / static_cast<double>(dag.sigma[w]);
    for (VertexId v : dag.predecessors(w)) {
      delta_[v] += static_cast<double>(dag.sigma[v]) * coeff;
    }
  });
  delta_[dag.source] = 0.0;  // dependency of s on itself is undefined/0
  return delta_;
}

}  // namespace mhbc
