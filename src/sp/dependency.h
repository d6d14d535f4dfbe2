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
/// With a borrowed worker pool the sweep runs level-parallel under the
/// same fixed-shard discipline as BfsSpd for every DAG that
/// carries level offsets — BFS levels and DeltaSpd settle waves alike: per
/// level, fixed shards of the level slice bucket per-parent contributions
/// sigma_v * coeff_w by destination range, then each range owner folds its
/// deltas walking the buckets in shard order. For any fixed parent the
/// contributions fold in level-slice order — exactly the sequential
/// sweep's regrouping — so delta vectors stay bit-identical at every
/// thread count. Heap-order (Dijkstra) DAGs carry no level structure and
/// keep the sequential reverse-settle sweep.

namespace mhbc {

class ThreadPool;

/// Reusable accumulator bound to one graph.
class DependencyAccumulator {
 public:
  /// `pool` (optional, non-owning, may be null) enables the level-parallel
  /// sweep for DAGs that carry level offsets; callers share the SPD
  /// engine's pool (BfsSpd::intra_pool) so one pass + accumulate uses one
  /// set of threads. Levels whose degree sum is below `parallel_grain` run
  /// the (bit-identical) sequential body; the default matches
  /// SpdOptions::parallel_grain.
  explicit DependencyAccumulator(const CsrGraph& graph,
                                 ThreadPool* pool = nullptr,
                                 std::uint64_t parallel_grain =
                                     SpdOptions{}.parallel_grain);

  /// Accumulates dependencies of `dag.source` on all vertices — the single
  /// backward-sweep implementation every pass flavor (BFS, delta-stepping,
  /// Dijkstra) funnels through. `graph` must be the graph the pass ran on;
  /// the level-parallel sweep sizes its per-level work from it. Result
  /// valid until the next Accumulate call.
  const std::vector<double>& Accumulate(const ShortestPathDag& dag,
                                        const CsrGraph& graph);

  /// Convenience overloads for the engines.
  const std::vector<double>& Accumulate(const BfsSpd& bfs);
  const std::vector<double>& Accumulate(const DeltaSpd& delta);

  /// Dependency of the last pass' source on v (0 for unreached vertices and
  /// for the source itself).
  double delta(VertexId v) const {
    MHBC_DCHECK(v < delta_.size());
    return delta_[v];
  }

  const std::vector<double>& deltas() const { return delta_; }

 private:
  /// One bucketed backward-sweep contribution: delta_[v] += c.
  struct Contribution {
    VertexId v;
    double c;
  };

  /// Level-parallel sweep over the recorded level structure (BFS DAGs).
  void AccumulateLevels(const ShortestPathDag& dag, const CsrGraph& graph);
  /// Lazily sizes destination ranges + buckets (same geometry rules as
  /// BfsSpd::EnsureParallelScratch — a pure function of |V|).
  void EnsureParallelScratch();

  std::vector<double> delta_;
  std::vector<VertexId> touched_;

  /// Intra-pass parallel state; pool_ null = always-sequential sweep.
  ThreadPool* pool_ = nullptr;
  std::uint64_t parallel_grain_ = 0;
  std::size_t num_vertices_ = 0;
  std::size_t num_ranges_ = 0;
  std::uint32_t range_shift_ = 0;
  /// Contribution buckets, indexed [shard * num_ranges_ + range].
  std::vector<std::vector<Contribution>> buckets_;
};

}  // namespace mhbc
