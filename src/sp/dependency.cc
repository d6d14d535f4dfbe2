#include "sp/dependency.h"

#include <bit>

#include "util/thread_pool.h"

namespace mhbc {

DependencyAccumulator::DependencyAccumulator(const CsrGraph& graph,
                                             ThreadPool* pool,
                                             std::uint64_t parallel_grain)
    : pool_(pool),
      parallel_grain_(parallel_grain),
      num_vertices_(graph.num_vertices()) {
  delta_.assign(graph.num_vertices(), 0.0);
  touched_.reserve(graph.num_vertices());
}

const std::vector<double>& DependencyAccumulator::Accumulate(
    const ShortestPathDag& dag, const CsrGraph& graph) {
  for (VertexId v : touched_) delta_[v] = 0.0;
  touched_.assign(dag.order.begin(), dag.order.end());

  if (pool_ != nullptr && !dag.level_offsets.empty()) {
    // Level-parallel sweep; only DAGs with a recorded level structure
    // qualify (Dijkstra DAGs keep the sequential reverse-settle sweep).
    AccumulateLevels(dag, graph);
  } else {
    // The sweep walks the recorded SPD edges only; no non-DAG edge is
    // touched.
    ForEachDeepestFirst(dag, [this, &dag](VertexId w) {
      const double coeff =
          (1.0 + delta_[w]) / static_cast<double>(dag.sigma[w]);
      for (VertexId v : dag.predecessors(w)) {
        delta_[v] += static_cast<double>(dag.sigma[v]) * coeff;
      }
    });
  }
  delta_[dag.source] = 0.0;  // dependency of s on itself is undefined/0
  return delta_;
}

void DependencyAccumulator::EnsureParallelScratch() {
  if (!buckets_.empty()) return;
  // Same destination-range geometry as BfsSpd::EnsureParallelScratch: a
  // pure function of |V| (64-alignment is irrelevant here — only delta_
  // entries are range-owned — but sharing the rule keeps one definition of
  // "range of v" across the intra-pass machinery).
  const std::size_t n_words = (num_vertices_ + 63) / 64;
  const std::size_t words_per_range = std::bit_ceil(
      (n_words + BfsSpd::kFrontierShards - 1) / BfsSpd::kFrontierShards);
  range_shift_ =
      6 + static_cast<std::uint32_t>(std::countr_zero(words_per_range));
  num_ranges_ = (n_words + words_per_range - 1) / words_per_range;
  buckets_.resize(BfsSpd::kFrontierShards * num_ranges_);
}

void DependencyAccumulator::AccumulateLevels(const ShortestPathDag& dag,
                                             const CsrGraph& graph) {
  for (std::size_t level = dag.num_levels(); level-- > 0;) {
    const std::size_t lo = dag.level_offsets[level];
    const std::size_t hi = dag.level_offsets[level + 1];
    // Work proxy for the grain test: the level's in-degree sum bounds the
    // parent edges a sweep of it examines (parents arrive over in-edges;
    // in-degree aliases degree on undirected graphs). A function of the
    // level only, so the parallel-or-sequential choice is
    // thread-count-independent.
    std::uint64_t level_edges = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      level_edges += graph.in_degree(dag.order[i]);
    }
    if (level_edges < parallel_grain_) {
      for (std::size_t i = lo; i < hi; ++i) {
        const VertexId w = dag.order[i];
        const double coeff =
            (1.0 + delta_[w]) / static_cast<double>(dag.sigma[w]);
        for (VertexId v : dag.predecessors(w)) {
          delta_[v] += static_cast<double>(dag.sigma[v]) * coeff;
        }
      }
      continue;
    }
    EnsureParallelScratch();
    // Phase 1 — fixed shards of the level slice bucket per-parent
    // contributions by destination range. delta_[w] reads are finalized
    // (contributions to w all came from deeper levels, behind barriers);
    // all writes go to the shard's private bucket row.
    ParallelShardedLevel(
        pool_, BfsSpd::kFrontierShards,
        [this, &dag, lo, hi](unsigned, std::size_t shard) {
          const auto [begin, end] =
              ShardBounds(hi - lo, shard, BfsSpd::kFrontierShards);
          std::vector<Contribution>* row =
              buckets_.data() + shard * num_ranges_;
          for (std::size_t i = lo + begin; i < lo + end; ++i) {
            const VertexId w = dag.order[i];
            const double coeff =
                (1.0 + delta_[w]) / static_cast<double>(dag.sigma[w]);
            for (VertexId v : dag.predecessors(w)) {
              row[v >> range_shift_].push_back(
                  {v, static_cast<double>(dag.sigma[v]) * coeff});
            }
          }
        },
        // Nothing to merge: phase 2 consumes the buckets in shard order.
        [](std::size_t) {});
    // Phase 2 — each range owner folds its delta entries, walking the
    // buckets in ascending shard order. Shards bucket their slice of the
    // (ascending-id) level in order, so for any fixed parent v the
    // contributions fold in ascending w — the sequential sweep's exact
    // floating-point regrouping.
    ParallelShardedLevel(
        pool_, num_ranges_,
        [this](unsigned, std::size_t range) {
          for (std::size_t shard = 0; shard < BfsSpd::kFrontierShards;
               ++shard) {
            std::vector<Contribution>& bucket =
                buckets_[shard * num_ranges_ + range];
            for (const Contribution& contribution : bucket) {
              delta_[contribution.v] += contribution.c;
            }
            bucket.clear();
          }
        },
        [](std::size_t) {});
  }
}

const std::vector<double>& DependencyAccumulator::Accumulate(
    const BfsSpd& bfs) {
  return Accumulate(bfs.dag(), bfs.graph());
}

const std::vector<double>& DependencyAccumulator::Accumulate(
    const DeltaSpd& delta) {
  return Accumulate(delta.dag(), delta.graph());
}

}  // namespace mhbc
