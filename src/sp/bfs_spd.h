#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr_graph.h"
#include "sp/spd.h"

/// \file
/// Unweighted shortest-path-DAG construction by level-synchronous BFS.
///
/// One kernel: direction-optimizing traversal (Beamer, "Direction-
/// Optimizing Breadth-First Search"). Per level it expands the frontier
/// top-down or scans unvisited vertices bottom-up against a visited
/// bitmap, whichever examines fewer edges (the α/β heuristics in
/// SpdOptions; alpha <= 0 pins every level top-down). Sigma counting stays
/// exact in both directions: a bottom-up step sums sigma over a vertex's
/// neighbors at the previous depth — the same ascending-parent fold a
/// top-down step performs against the sorted frontier — so dist, sigma,
/// and the canonical order are bit-identical across α/β settings.
///
/// Every pass emits the canonical DAG order (ascending vertex id within
/// each level, level slices recorded in ShortestPathDag::level_offsets)
/// and records explicit predecessor lists while it traverses — it
/// inspects every parent edge anyway — so the backward sweep
/// (sp/dependency.h) walks SPD edges only. A bottom-up step discovers its
/// level in ascending id. A top-down step marks each discovery in a level
/// bitmap and emits the level by an ascending scan of the marked word
/// span; only a level scattered thinly over the id space (SortsLevel) is
/// sorted instead. Both branches yield the same vector, and the choice
/// depends on the level alone.
///
/// Intra-pass parallelism (SpdOptions::num_threads > 1) runs the level
/// steps frontier-parallel while keeping every output bit-identical to
/// the sequential pass. The structure is fixed and
/// thread-count-independent (the same discipline BrandesBetweenness uses
/// across sources):
///
///   * The frontier is split into kFrontierShards contiguous slices; the
///     vertex-id space into contiguous 64-aligned *destination ranges*
///     (a pure function of |V|, at most kFrontierShards of them).
///   * A top-down level runs two ParallelShardedLevel phases: frontier
///     shards bucket candidate DAG edges by destination range (dist is
///     read-only), then each range owner settles its vertices, folding
///     sigma and appending parents by walking the buckets in shard order —
///     which for any fixed vertex is ascending parent id, the exact
///     sequential fold order.
///   * A bottom-up level partitions the visited bitmap by word ranges;
///     each owner runs the sequential scan body on its words (every write
///     — dist/sigma/preds/bitmap — lands in the owned range) and tests
///     parents against a read-only frontier bitmap.
///   * Per-range next-frontier segments are emitted in ascending id from
///     the range's own level-bitmap words and concatenated in range order,
///     reproducing the globally sorted frontier the sequential steps build.
///
/// Levels below SpdOptions::parallel_grain examined edges run the
/// (identical-output) sequential step, so tiny levels pay no fan-out cost.
///
/// Target-scoped passes (Run with a scope vertex r) serve a read of the
/// single dependency delta_s(r), which depends only on sigma and on r's
/// DAG descendants. They compute dist, sigma, order and level_offsets
/// exactly as a full pass does, but record a DAG edge u->v only when u is
/// *marked*: u is r itself or already recorded a parent. Recording marks
/// v, so the marked vertices are exactly r and its DAG descendants, and
/// the recorded edges are exactly the DAG edges among them, each parent
/// list in the full pass' order. Every descendant's child edges are
/// recorded, which is all the sweep needs for delta_s(r). A mark is
/// therefore pred_count[u] != 0 (or u == r): no separate bitmap,
/// nothing left stale when r is unreached, and in a parallel step the
/// mark of a parent (previous level, read-only) and the marks being
/// written (this level, each in its range owner's slice) never share a
/// memory location. The level loops are instantiated per mode, so a full
/// pass runs no mark test.
///
/// Distance-only passes (RunDistances) serve callers that read dist alone
/// (distance tables, zero-dependency screens): a third instantiation of
/// the level loop records no DAG edge at all, so every pred_count stays
/// zero, while dist, sigma, order and level_offsets come out exactly as a
/// full pass' do.
///
/// Directed graphs: top-down expansion walks out-edges and every parent
/// scan — the bottom-up step and recorded predecessor lists — walks
/// in-edges (CsrGraph::in_neighbors, the transpose view), which on
/// undirected graphs alias the out-edges, so the undirected pass is
/// unchanged. The direction heuristic's two ledgers split accordingly:
/// m_f is the frontier's out-degree sum, m_u the unvisited vertices'
/// in-degree sum. The sharded geometry and the determinism argument are
/// direction-blind (both CSRs are sorted), so directed passes keep the
/// bit-identity contract at every thread count.

namespace mhbc {

class ThreadPool;

/// Reusable BFS engine for one graph.
///
/// Run(source) costs O(|E|) with no allocation after the first call: state
/// is reset lazily via the previous pass' order. The engine is not
/// reentrant — one Run at a time; with SpdOptions::num_threads > 1 a Run
/// internally fans level steps out over an owned worker pool (see the
/// intra-pass notes above). Samplers own one instance each.
class BfsSpd {
 public:
  /// Work counters of one pass (and totals across passes). "Edges
  /// examined" counts neighbor-list entries inspected: a top-down level
  /// examines the frontier's degree sum, a bottom-up level the degree sum
  /// of still-unvisited vertices.
  struct Stats {
    std::uint64_t edges_examined = 0;
    std::uint32_t top_down_levels = 0;
    std::uint32_t bottom_up_levels = 0;
    std::uint32_t direction_switches = 0;
    /// Predecessor entries stored: every SPD edge on a full pass, the
    /// edges among the scope vertex and its descendants on a scoped one,
    /// none on a distance-only one.
    std::uint64_t pred_edges_recorded = 0;
  };

  /// Fixed number of frontier shards (and the cap on destination ranges)
  /// a parallel level step uses. A constant — never derived from the
  /// thread count — which is what makes the shard-merge order, and with it
  /// every sigma/delta regrouping, identical at any parallelism level.
  static constexpr std::size_t kFrontierShards = 32;

  /// True when a top-down level (or range segment) of `size` vertices
  /// whose marked bitmap words span `span_words` (highest minus lowest)
  /// is sorted rather than word-scanned (see EmitAscending). The scan
  /// visits every word of the span, the sort makes about size * log2(size)
  /// comparisons; timed per level on grids and paths with shuffled ids,
  /// the two break even near span_words = size * bit_width(size) for
  /// levels of up to ~1k vertices (larger levels favor the scan further).
  /// Output-neutral: both branches emit the same vector.
  static constexpr bool SortsLevel(std::size_t size, std::size_t span_words) {
    return span_words >= size * std::bit_width(size);
  }

  /// The graph must outlive the engine.
  explicit BfsSpd(const CsrGraph& graph, SpdOptions options = SpdOptions());
  ~BfsSpd();

  /// Computes dist/sigma/order, level offsets and predecessors from
  /// `source`. With a `scope` vertex r the pass records only the DAG
  /// edges among r and its descendants (see the file comment): enough for
  /// the backward sweep to produce delta_source(r) bit-identically, and
  /// nothing else of the dependency vector.
  void Run(VertexId source, VertexId scope = kInvalidVertex);

  /// Computes dist/sigma/order and level offsets from `source` exactly as
  /// Run does, but records no predecessor (every pred_count is zero).
  void RunDistances(VertexId source);

  /// Result of the last Run. Valid until the next Run.
  const ShortestPathDag& dag() const { return dag_; }

  const CsrGraph& graph() const { return *graph_; }
  const SpdOptions& options() const { return options_; }

  /// Counters of the last Run / summed over all Runs.
  const Stats& last_stats() const { return last_stats_; }
  const Stats& total_stats() const { return total_stats_; }

  /// The engine's intra-pass worker pool; null when the pass is sequential
  /// (SpdOptions::num_threads <= 1). Tests and probes use it to
  /// tell a sequential engine from a parallel one.
  ThreadPool* intra_pool() const { return pool_.get(); }

 private:
  /// True when a level with `level_edges` of work should fan out: a pool
  /// exists and the level clears the (thread-count-independent) grain.
  bool UseParallel(std::uint64_t level_edges) const {
    return pool_ != nullptr && level_edges >= options_.parallel_grain;
  }
  /// What a level step adds up about the level it settles: the new
  /// level's out-degree sum (the next top-down cost), its in-degree sum
  /// (the bottom-up cost ledger, which differs from the out-degree sum on
  /// directed graphs), and the predecessor entries it recorded.
  struct LevelSums {
    std::uint64_t out_edges = 0;
    std::uint64_t in_edges = 0;
    std::uint64_t recorded = 0;
    void Add(const LevelSums& other) {
      out_edges += other.out_edges;
      in_edges += other.in_edges;
      recorded += other.recorded;
    }
  };

  /// Which DAG edges a pass records: all of them, those below the scope
  /// vertex, or none.
  enum class Mode { kFull, kScoped, kDistances };

  /// The body of Run and RunDistances: resets what the previous pass
  /// touched and runs the level loop for `kMode`.
  template <Mode kMode>
  void RunMode(VertexId source, VertexId scope);
  /// The level loop, instantiated per mode.
  template <Mode kMode>
  void Traverse(VertexId source);
  /// True when a DAG edge out of `u` is recorded: always on a full pass,
  /// never on a distance-only one, and on a scoped one only when u is
  /// marked (the scope vertex, or a vertex that recorded a parent).
  template <Mode kMode>
  bool Records(VertexId u) const {
    if constexpr (kMode == Mode::kFull) {
      return true;
    } else if constexpr (kMode == Mode::kDistances) {
      return false;
    } else {
      return u == scope_ || dag_.pred_count[u] != 0;
    }
  }

  /// Lazily sizes the destination ranges + per-shard buckets (a pure
  /// function of |V|).
  void EnsureParallelScratch();
  /// Frontier-parallel top-down level step: settles depth+1 and fills
  /// next_ (sorted).
  template <Mode kMode>
  LevelSums TopDownLevelParallel(std::uint32_t depth);
  /// Word-range-parallel bottom-up level step; same outputs as above.
  template <Mode kMode>
  LevelSums BottomUpLevelParallel(std::uint32_t depth,
                                  std::uint64_t tail_mask);

  /// Sets v's bit in frontier_bits_.
  void MarkLevel(VertexId v) {
    frontier_bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  /// Replaces `level` (discoveries in any order, each marked in
  /// frontier_bits_ words [lo_word, hi_word]) with the same vertices in
  /// ascending id and zeroes those words.
  void EmitAscending(std::vector<VertexId>* level, std::size_t lo_word,
                     std::size_t hi_word);

  void SetVisited(VertexId v) {
    visited_[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  void ClearVisited(VertexId v) {
    visited_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  }

  const CsrGraph* graph_;
  SpdOptions options_;
  ShortestPathDag dag_;
  /// The scope vertex of the running pass (kInvalidVertex: full pass).
  VertexId scope_ = kInvalidVertex;
  /// Frontier scratch: current level / next level under construction.
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_;
  /// Visited bitmap (one bit per vertex).
  std::vector<std::uint64_t> visited_;
  Stats last_stats_;
  Stats total_stats_;

  /// A candidate DAG edge found by a top-down frontier shard: v is
  /// unreached at level start, u its frontier parent.
  struct TdCandidate {
    VertexId v;
    VertexId u;
  };

  /// Intra-pass parallel state; pool_ is null (and the scratch below
  /// empty) when the engine runs sequentially.
  std::unique_ptr<ThreadPool> pool_;
  /// Destination-range geometry: range of v is v >> range_shift_;
  /// num_ranges_ <= kFrontierShards. Ranges are 64-aligned so every
  /// visited-bitmap word has exactly one owner.
  std::size_t num_ranges_ = 0;
  std::uint32_t range_shift_ = 0;
  /// Candidate buckets, indexed [shard * num_ranges_ + range]; capacity is
  /// retained across levels and passes.
  std::vector<std::vector<TdCandidate>> buckets_;
  /// Per-range next-frontier segments + their level sums.
  std::vector<std::vector<VertexId>> range_next_;
  std::vector<LevelSums> range_sums_;
  /// Level bitmap, one bit per vertex, all-zero outside a step. A top-down
  /// step marks the next level in it to emit that level sorted; a parallel
  /// bottom-up step publishes the current frontier in it so the parent
  /// test never reads a dist entry another range owner may be writing.
  std::vector<std::uint64_t> frontier_bits_;
};

}  // namespace mhbc
