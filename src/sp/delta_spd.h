#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr_graph.h"
#include "sp/spd.h"

/// \file
/// Weighted shortest-path-DAG construction by canonical-wave delta-stepping.
///
/// The weighted analogue of the BFS engine (sp/bfs_spd.h): one pass costs
/// O(|E| + waves * window) like delta-stepping (Meyer & Sanders), but the
/// settle schedule is *canonical* — a pure function of the graph and the
/// source, never of the bucket width or the thread count — so weighted
/// passes join the determinism contract the unweighted kernel already
/// honors.
///
/// The wave rule. Let d_min be the smallest tentative distance over all
/// reached-but-unsettled vertices and minw(v) the smallest weight incident
/// to v. One step settles the *wave*
///
///     W = { unsettled reached v : wdist(v) < d_min + minw(v) }
///
/// all at once, then relaxes every edge out of W. Finality: any later
/// candidate path into v ends with an edge from a vertex settling at
/// distance >= d_min, so it costs >= d_min + minw(v) > wdist(v) — the
/// tentative distance is already final (positive weights make every
/// unsettled vertex' final distance >= d_min, the textbook Dijkstra
/// argument). The d_min achiever always qualifies (minw > 0), so every
/// step makes progress. Ties that land within tie_epsilon of the
/// wave-settle bound are dropped — deterministically, at every thread
/// count and bucket width (see SpdOptions::tie_epsilon).
///
/// Waves are levels. No SPD edge connects two wave members (an intra-wave
/// candidate costs >= d_min + minw(v) and so cannot tie wdist(v)), and
/// every parent settles in an earlier wave — the settle order is
/// topological, exactly what the backward dependency sweep needs. Waves
/// are recorded as ShortestPathDag::level_offsets with members in
/// ascending (wdist, id) order, so weighted passes reuse the *same*
/// deepest-first backward sweep (sp/dependency.h) as BFS. Note the order is
/// NOT globally distance-sorted (a heap engine's order is): a vertex with
/// a large minw may settle before a nearer vertex with a small minw.
///
/// Buckets only organize the scan. Tentative distances are kept in an
/// array of width-Δ buckets (Δ = SpdOptions::delta_width, defaulting to
/// the graph's mean edge weight — a pure function of the graph). Entries
/// are lazy — duplicates allowed, stale ones filtered against the current
/// wdist — and each step scans the window of buckets that can contain wave
/// members, [bucket(d_min), bucket(d_min + max_v minw(v))]. Because wave
/// membership is defined by distances and minw alone, every output bit is
/// invariant under Δ; the width trades bucket-scan overhead against window
/// size only.
///
/// Intra-pass parallelism (SpdOptions::num_threads > 1) fans each wave's
/// relaxation out under the same fixed-shard discipline as the BFS
/// kernels: kFrontierShards contiguous slices of the (sorted) wave bucket
/// candidate relaxations by 64-aligned destination range (a pure function
/// of |V|); each range owner then commits its targets' relaxations walking
/// the buckets in shard order — for any fixed target that is ascending
/// (wdist, id) parent order, the exact sequential fold — staging bucket
/// insertions that the calling thread applies in range order. Since wave
/// members' wdist/sigma are fixed before relaxation begins and each
/// target's state is owned by exactly one range, wdist/sigma/order/preds —
/// and every dependency vector downstream — are bit-identical to the
/// sequential pass at any thread count.

namespace mhbc {

class ThreadPool;

/// Reusable canonical-wave delta-stepping engine for one positively-
/// weighted graph.
///
/// Like DijkstraSpd it always records explicit predecessor lists (weighted
/// ties cannot be re-derived from distances) into the shared CSR-capacity
/// pred_* storage; unlike DijkstraSpd it also records the wave structure
/// in level_offsets, so the backward sweep walks waves deepest-first.
/// Run(source) allocates nothing after the first call. The engine is not
/// reentrant — one Run at a time; with num_threads > 1 a Run fans wave
/// relaxations out over an owned worker pool (exposed by intra_pool()).
class DeltaSpd {
 public:
  /// Work counters of one pass (and totals across passes). "Edges
  /// examined" counts neighbor-list entries inspected by wave relaxations
  /// (each directed edge at most once per pass); "bucket entries scanned"
  /// counts the lazy-queue overhead (compaction + wave selection visits).
  struct Stats {
    std::uint64_t edges_examined = 0;
    std::uint64_t bucket_entries_scanned = 0;
    std::uint32_t waves = 0;
    std::uint32_t parallel_waves = 0;
  };

  /// Fixed shard count of a parallel wave relaxation — the same constant
  /// (and the same destination-range geometry) as BfsSpd::kFrontierShards,
  /// never derived from the thread count.
  static constexpr std::size_t kFrontierShards = 32;

  /// The graph must be weighted with positive weights and outlive the
  /// engine. options.tie_epsilon must be >= 0 and options.delta_width
  /// >= 0 (0 = auto width); both are validated here.
  explicit DeltaSpd(const CsrGraph& graph, SpdOptions options = SpdOptions());
  ~DeltaSpd();

  /// Computes wdist/sigma/order/level_offsets/predecessors from `source`.
  void Run(VertexId source);

  /// Result of the last Run. `dag().wdist` holds weighted distances;
  /// `dag().dist` is not populated. Valid until the next Run.
  const ShortestPathDag& dag() const { return dag_; }

  /// Predecessors of v in the SPD of the last Run (dag().predecessors).
  std::span<const VertexId> predecessors(VertexId v) const {
    MHBC_DCHECK(v < graph_->num_vertices());
    return dag_.predecessors(v);
  }

  const CsrGraph& graph() const { return *graph_; }
  const SpdOptions& options() const { return options_; }

  /// The bucket width Δ in effect: options().delta_width when positive,
  /// else the canonical auto width (mean edge weight; 1.0 on an edgeless
  /// graph). Outputs are invariant under it — see the file comment.
  double bucket_width() const { return bucket_width_; }

  /// Smallest weight incident to v — the minimum *incoming* weight on
  /// directed graphs (+infinity for vertices with no in-edge): relaxations
  /// arrive over in-edges, so that is the wave rule's per-vertex settle
  /// slack. Exposed for the oracle's selective weighted invalidation and
  /// for tests.
  double min_incident_weight(VertexId v) const {
    MHBC_DCHECK(v < min_incident_.size());
    return min_incident_[v];
  }

  /// Counters of the last Run / summed over all Runs.
  const Stats& last_stats() const { return last_stats_; }
  const Stats& total_stats() const { return total_stats_; }

  /// The engine's intra-pass worker pool; null when the pass is sequential
  /// (SpdOptions::num_threads <= 1). Tests and probes use it to
  /// tell a sequential engine from a parallel one.
  ThreadPool* intra_pool() const { return pool_.get(); }

 private:
  /// The canonical tie rule (shared with DijkstraSpd): a == b or
  /// |a - b| <= tie_epsilon * max(|a|, |b|).
  bool Equal(double a, double b) const;

  /// Bucket index of distance d; monotone in d, so the first non-empty
  /// bucket always contains the global minimum tentative distance.
  std::size_t BucketOf(double d) const {
    return static_cast<std::size_t>(d / bucket_width_);
  }

  /// Appends a lazy entry for v to `bucket`, growing the array as needed.
  void PushBucket(std::size_t bucket, VertexId v);

  /// Relaxes one candidate edge u -> v (v unsettled): strict improvement
  /// resets v's predecessor set and re-buckets v via `push(bucket, v)`;
  /// a tie folds sigma and appends u. The single relax body both the
  /// sequential and the parallel path funnel through.
  template <typename Push>
  void RelaxCandidate(VertexId u, VertexId v, double candidate, Push&& push);

  /// Relaxes every edge out of wave_ in wave order on the calling thread.
  void RelaxWaveSequential();
  /// Fixed-shard parallel wave relaxation (see the file comment); output
  /// bit-identical to RelaxWaveSequential.
  void RelaxWaveParallel();

  /// True when a wave with `wave_edges` of work should fan out: a pool
  /// exists and the wave clears the (thread-count-independent) grain.
  bool UseParallel(std::uint64_t wave_edges) const {
    return pool_ != nullptr && wave_edges >= options_.parallel_grain;
  }
  /// Lazily sizes the destination ranges + per-shard candidate buckets
  /// (the BfsSpd geometry — a pure function of |V|).
  void EnsureParallelScratch();

  const CsrGraph* graph_;
  SpdOptions options_;
  ShortestPathDag dag_;
  /// Per-vertex smallest incident weight minw(v); +infinity for isolated
  /// vertices (only consulted for reached vertices, which have an edge).
  std::vector<double> min_incident_;
  /// max_v minw(v) over non-isolated vertices — the window span.
  double max_min_incident_ = 0.0;
  double bucket_width_ = 1.0;
  std::vector<char> settled_;
  /// Lazy bucket queue: buckets_[b] holds candidate entries for vertices
  /// whose tentative distance mapped to bucket b when last improved.
  /// Duplicates and stale entries are allowed; compaction filters them
  /// against wdist. All buckets are empty between Runs.
  std::vector<std::vector<VertexId>> buckets_;
  std::size_t max_bucket_ = 0;
  /// The current wave, ascending (wdist, id).
  std::vector<VertexId> wave_;
  Stats last_stats_;
  Stats total_stats_;

  /// A candidate relaxation found by a wave shard: settled parent u offers
  /// v the path length `candidate`.
  struct Candidate {
    VertexId v;
    VertexId u;
    double candidate;
  };
  /// A bucket insertion staged by a range owner, applied by the calling
  /// thread in range order.
  struct StagedPush {
    std::size_t bucket;
    VertexId v;
  };

  /// Intra-pass parallel state; pool_ is null (and the scratch below
  /// empty) when the engine runs sequentially.
  std::unique_ptr<ThreadPool> pool_;
  /// Destination-range geometry: range of v is v >> range_shift_;
  /// num_ranges_ <= kFrontierShards (same rule as BfsSpd).
  std::size_t num_ranges_ = 0;
  std::uint32_t range_shift_ = 0;
  /// Candidate buckets, indexed [shard * num_ranges_ + range]; capacity is
  /// retained across waves and passes.
  std::vector<std::vector<Candidate>> cand_buckets_;
  /// Per-range staged bucket insertions.
  std::vector<std::vector<StagedPush>> range_pushes_;
};

}  // namespace mhbc
