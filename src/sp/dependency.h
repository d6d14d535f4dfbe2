#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"

/// \file
/// Brandes dependency accumulation over a shortest-path DAG.
///
/// Computes the dependency scores delta_{s.}(v) of the pass source s on
/// every vertex v via the recursion (paper Eq. 4):
///   delta_{s.}(v) = sum over SPD-successors w of v of
///                   sigma_sv / sigma_sw * (1 + delta_{s.}(w)).
/// One accumulation costs O(|SPD edges|): every SPD engine records
/// explicit predecessor lists, and the backward sweep walks only those.
///
/// The sweep order is fixed by ForEachDeepestFirst (sp/spd.h): levels
/// deepest-first, in the DAG's canonical within-level order (ascending id
/// for BFS levels, ascending (wdist, id) for DeltaSpd waves). That order
/// is a property of the DAG alone — not of the traversal direction that
/// built it — which is what makes dependency vectors bit-identical across
/// α/β settings.
///
/// The sweep is sequential. A level-parallel variant (fixed shards
/// bucketing contributions by destination range) was retired: on
/// MakeBarabasiAlbert(250000, 4, 1) at 4 threads on a 4-vCPU VM it ran
/// about 1.5x faster than this loop for about 1.9x its CPU. Intra-pass
/// threads parallelize the pass itself only.

namespace mhbc {

class ThreadPool;

/// Reusable accumulator bound to one graph.
class DependencyAccumulator {
 public:
  /// The ThreadPool* parameter is ignored; it stays so that callers that
  /// pass an SPD engine's intra_pool() keep compiling.
  explicit DependencyAccumulator(const CsrGraph& graph,
                                 ThreadPool* /*ignored*/ = nullptr);

  /// Accumulates dependencies of `dag.source` on all vertices — the single
  /// backward-sweep implementation every pass flavor (BFS, delta-stepping,
  /// Dijkstra) funnels through. The DAG must come from a pass on the graph
  /// this accumulator is bound to. Result valid until the next Accumulate
  /// call.
  ///
  /// With a `scope` vertex r the DAG must come from BfsSpd::Run(source, r):
  /// the sweep stops after level d(s, r) + 1 and only r's DAG descendants
  /// carry parents, so only the entry for r is meaningful. Every
  /// descendant receives the same terms in the same order as in a full
  /// sweep (vertices without recorded parents add nothing), so delta(r)
  /// is bit-identical to the full sweep's.
  const std::vector<double>& Accumulate(const ShortestPathDag& dag,
                                        VertexId scope = kInvalidVertex);

  /// Convenience overloads for the engines.
  const std::vector<double>& Accumulate(const BfsSpd& bfs) {
    return Accumulate(bfs.dag());
  }
  const std::vector<double>& Accumulate(const DeltaSpd& delta) {
    return Accumulate(delta.dag());
  }

  /// Dependency of the last pass' source on v (0 for unreached vertices and
  /// for the source itself).
  double delta(VertexId v) const {
    MHBC_DCHECK(v < delta_.size());
    return delta_[v];
  }

  const std::vector<double>& deltas() const { return delta_; }

 private:
  std::vector<double> delta_;
  std::vector<VertexId> touched_;
};

}  // namespace mhbc
