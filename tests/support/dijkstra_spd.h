#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "sp/spd.h"

/// \file
/// Weighted shortest-path-DAG construction by Dijkstra's algorithm — the
/// heap-order reference the tests check the library's weighted engine
/// (DeltaSpd) against. One pass is O(|E| log |V|) (binary heap with lazy
/// deletion).

namespace mhbc {

/// Reusable Dijkstra engine for one positively-weighted graph.
///
/// Unlike BFS, shortest-path ties under floating-point addition cannot be
/// re-derived from distances alone, so the engine always records explicit
/// predecessor lists (the SPD edges) into the shared
/// ShortestPathDag::pred_* storage (CSR-capacity layout keyed by degree,
/// so no per-pass allocation is needed).
class DijkstraSpd {
 public:
  /// The graph must be weighted with positive weights and outlive the
  /// engine. Tie detection follows the canonical tie rule (see
  /// SpdOptions::tie_epsilon — this engine shares it with DeltaSpd):
  /// distances within `tie_epsilon` (relative) are equal; 0 requires exact
  /// FP equality. Must be >= 0 (validated).
  explicit DijkstraSpd(const CsrGraph& graph,
                       double tie_epsilon = kDefaultTieEpsilon);

  /// Computes wdist/sigma/order/predecessors from `source`.
  void Run(VertexId source);

  /// Result of the last Run. `dag().wdist` holds weighted distances;
  /// `dag().dist` is not populated.
  const ShortestPathDag& dag() const { return dag_; }

  /// Predecessors of v in the SPD of the last Run (dag().predecessors).
  std::span<const VertexId> predecessors(VertexId v) const {
    MHBC_DCHECK(v < graph_->num_vertices());
    return dag_.predecessors(v);
  }

  const CsrGraph& graph() const { return *graph_; }

 private:
  bool Equal(double a, double b) const;

  const CsrGraph* graph_;
  double tie_epsilon_;
  ShortestPathDag dag_;
  std::vector<char> settled_;
};

}  // namespace mhbc
