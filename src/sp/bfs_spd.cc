#include "sp/bfs_spd.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/thread_pool.h"

namespace mhbc {

BfsSpd::BfsSpd(const CsrGraph& graph, SpdOptions options)
    : graph_(&graph), options_(options) {
  const VertexId n = graph.num_vertices();
  dag_.dist.assign(n, kUnreachedDistance);
  dag_.sigma.assign(n, 0);
  dag_.order.reserve(n);
  dag_.weighted = false;
  frontier_.reserve(n);
  next_.reserve(n);
  // num_threads 0 and 1 both run sequential passes.
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

BfsSpd::~BfsSpd() = default;

void BfsSpd::Run(VertexId source, VertexId scope) {
  MHBC_DCHECK(scope == kInvalidVertex || scope < graph_->num_vertices());
  if (scope == kInvalidVertex) {
    RunMode<Mode::kFull>(source, scope);
  } else {
    RunMode<Mode::kScoped>(source, scope);
  }
}

void BfsSpd::RunDistances(VertexId source) {
  RunMode<Mode::kDistances>(source, kInvalidVertex);
}

template <BfsSpd::Mode kMode>
void BfsSpd::RunMode(VertexId source, VertexId scope) {
  MHBC_DCHECK(source < graph_->num_vertices());
  const VertexId n = graph_->num_vertices();
  if (visited_.empty()) {
    // First pass: size the visited bitmap and the predecessor storage.
    // Parents reach a vertex over its in-edges, so predecessor capacity is
    // the in-CSR layout (aliases the out-CSR when undirected).
    visited_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
    frontier_bits_.assign(visited_.size(), 0);
    dag_.pred_begin = graph_->raw_in_offsets().data();
    dag_.pred_count.assign(n, 0);
    dag_.pred_storage.assign(graph_->raw_in_adjacency().size(),
                             kInvalidVertex);
  }
  // Reset only what the previous pass touched. A scoped pass marks
  // through pred_count alone, so this also clears every mark.
  for (VertexId v : dag_.order) {
    dag_.dist[v] = kUnreachedDistance;
    dag_.sigma[v] = 0;
    ClearVisited(v);
    dag_.pred_count[v] = 0;
  }
  dag_.order.clear();
  dag_.level_offsets.clear();
  dag_.source = source;
  scope_ = scope;
  last_stats_ = Stats();
  Traverse<kMode>(source);
  total_stats_.edges_examined += last_stats_.edges_examined;
  total_stats_.top_down_levels += last_stats_.top_down_levels;
  total_stats_.bottom_up_levels += last_stats_.bottom_up_levels;
  total_stats_.direction_switches += last_stats_.direction_switches;
  total_stats_.pred_edges_recorded += last_stats_.pred_edges_recorded;
}

template <BfsSpd::Mode kMode>
void BfsSpd::Traverse(VertexId source) {
  const VertexId n = graph_->num_vertices();
  // Bits past n in the last bitmap word never correspond to vertices; mask
  // them out of every bottom-up word scan.
  const std::uint64_t tail_mask =
      (n & 63) ? ((std::uint64_t{1} << (n & 63)) - 1) : ~std::uint64_t{0};

  dag_.dist[source] = 0;
  dag_.sigma[source] = 1;
  SetVisited(source);
  frontier_.clear();
  frontier_.push_back(source);
  // Beamer's two aggregates: edges a top-down step would examine
  // (out-degree sum of the frontier) vs edges a bottom-up step would
  // examine (in-degree sum of unvisited vertices — the bottom-up parent
  // scan walks in-edges). Both are maintained incrementally; on
  // undirected graphs the two degree notions coincide.
  std::uint64_t frontier_edges = graph_->degree(source);
  std::uint64_t unexplored_edges =
      graph_->raw_in_adjacency().size() - graph_->in_degree(source);
  std::size_t prev_frontier_size = 0;
  bool bottom_up = false;
  std::uint32_t depth = 0;

  while (!frontier_.empty()) {
    dag_.level_offsets.push_back(dag_.order.size());
    dag_.order.insert(dag_.order.end(), frontier_.begin(), frontier_.end());

    // Per-level direction choice (Beamer's edge-count test). Expanding
    // this frontier top-down examines m_f edges (the frontier's degree
    // sum); bottom-up examines m_u (the unvisited vertices' degree sum)
    // but at a per-edge cost alpha times cheaper — the bottom-up loop is a
    // sequential ascending scan with no discovery bookkeeping, and it
    // finds its level already in order (no level bitmap to mark and scan).
    // So bottom-up is the profitable direction for a level exactly when
    // m_f * alpha > m_u; the exit test is the negation, and entry is
    // additionally gated on a growing frontier (a shrinking one is
    // draining a tail top-down handles better — without this gate,
    // plateaued frontiers on high-diameter graphs flap directions for zero
    // savings). Beamer's n/beta tail rule is kept as a secondary exit.
    const bool growing = frontier_.size() >= prev_frontier_size;
    const bool profitable =
        options_.alpha > 0.0 &&
        static_cast<double>(frontier_edges) * options_.alpha >
            static_cast<double>(unexplored_edges);
    const bool was_bottom_up = bottom_up;
    if (!bottom_up) {
      bottom_up = growing && profitable;
    } else if (!profitable ||
               (!growing && options_.beta > 0.0 &&
                static_cast<double>(frontier_.size()) * options_.beta <
                    static_cast<double>(n))) {
      bottom_up = false;
    }
    if (bottom_up != was_bottom_up) ++last_stats_.direction_switches;
    prev_frontier_size = frontier_.size();

    next_.clear();
    LevelSums sums;
    if (bottom_up) {
      ++last_stats_.bottom_up_levels;
      last_stats_.edges_examined += unexplored_edges;
      if (UseParallel(unexplored_edges)) {
        sums = BottomUpLevelParallel<kMode>(depth, tail_mask);
      } else {
        // Scan unvisited vertices in ascending id (so the next level needs
        // no sort) and gather all in-edge parents at the current depth; no
        // early exit — exact sigma needs every parent.
        for (std::size_t word = 0; word < visited_.size(); ++word) {
          std::uint64_t unvisited = ~visited_[word];
          if (word + 1 == visited_.size()) unvisited &= tail_mask;
          while (unvisited != 0) {
            const VertexId v = static_cast<VertexId>(
                (word << 6) + std::countr_zero(unvisited));
            unvisited &= unvisited - 1;
            SigmaCount sv = 0;
            bool reached = false;
            std::uint32_t parents = 0;
            const std::size_t base = dag_.pred_begin[v];
            for (VertexId u : graph_->in_neighbors(v)) {
              if (dag_.dist[u] == depth) {
                sv += dag_.sigma[u];
                reached = true;
                if (Records<kMode>(u)) {
                  dag_.pred_storage[base + parents++] = u;
                }
              }
            }
            if (reached) {
              dag_.dist[v] = depth + 1;
              dag_.sigma[v] = sv;
              dag_.pred_count[v] = parents;
              SetVisited(v);
              next_.push_back(v);
              sums.out_edges += graph_->degree(v);
              sums.in_edges += graph_->in_degree(v);
              sums.recorded += parents;
            }
          }
        }
      }
    } else {
      ++last_stats_.top_down_levels;
      last_stats_.edges_examined += frontier_edges;
      if (UseParallel(frontier_edges)) {
        sums = TopDownLevelParallel<kMode>(depth);
      } else {
        std::size_t lo_word = frontier_bits_.size();
        std::size_t hi_word = 0;
        for (VertexId u : frontier_) {
          const SigmaCount su = dag_.sigma[u];
          const bool records = Records<kMode>(u);
          for (VertexId v : graph_->neighbors(u)) {
            if (dag_.dist[v] == kUnreachedDistance) {
              dag_.dist[v] = depth + 1;
              SetVisited(v);
              MarkLevel(v);
              lo_word = std::min<std::size_t>(lo_word, v >> 6);
              hi_word = std::max<std::size_t>(hi_word, v >> 6);
              next_.push_back(v);
              sums.out_edges += graph_->degree(v);
              sums.in_edges += graph_->in_degree(v);
            }
            if (dag_.dist[v] == depth + 1) {
              // The frontier is sorted, so parents append in ascending id
              // — the same sequence a bottom-up in-neighbor scan records —
              // and sigma folds in the same order.
              dag_.sigma[v] += su;
              if (records) {
                dag_.pred_storage[dag_.pred_begin[v] +
                                  dag_.pred_count[v]++] = u;
                ++sums.recorded;
              }
            }
          }
        }
        EmitAscending(&next_, lo_word, hi_word);
      }
    }
    last_stats_.pred_edges_recorded += sums.recorded;
    unexplored_edges -= sums.in_edges;
    frontier_edges = sums.out_edges;
    frontier_.swap(next_);
    ++depth;
  }
  dag_.level_offsets.push_back(dag_.order.size());
}

void BfsSpd::EnsureParallelScratch() {
  if (!range_next_.empty()) return;
  const std::size_t n = graph_->num_vertices();
  const std::size_t n_words = (n + 63) / 64;
  // Destination ranges are contiguous 64-aligned vertex-id slices — a pure
  // function of |V|, never of the thread count: the smallest power-of-two
  // word span that yields at most kFrontierShards ranges. Word alignment
  // makes every visited-bitmap word single-owner, so bottom-up steps and
  // top-down discovery write the bitmap without synchronization.
  const std::size_t words_per_range =
      std::bit_ceil((n_words + kFrontierShards - 1) / kFrontierShards);
  range_shift_ =
      6 + static_cast<std::uint32_t>(std::countr_zero(words_per_range));
  num_ranges_ = (n_words + words_per_range - 1) / words_per_range;
  buckets_.resize(kFrontierShards * num_ranges_);
  range_next_.resize(num_ranges_);
  range_sums_.assign(num_ranges_, LevelSums());
}

void BfsSpd::EmitAscending(std::vector<VertexId>* level, std::size_t lo_word,
                           std::size_t hi_word) {
  if (level->empty()) return;
  // Both branches emit the same ascending vector and leave the marked
  // words zero; the choice depends on the level alone.
  if (SortsLevel(level->size(), hi_word - lo_word)) {
    std::sort(level->begin(), level->end());
    for (VertexId v : *level) frontier_bits_[v >> 6] = 0;
    return;
  }
  level->clear();
  for (std::size_t word = lo_word; word <= hi_word; ++word) {
    std::uint64_t bits = frontier_bits_[word];
    frontier_bits_[word] = 0;
    while (bits != 0) {
      level->push_back(
          static_cast<VertexId>((word << 6) + std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

template <BfsSpd::Mode kMode>
BfsSpd::LevelSums BfsSpd::TopDownLevelParallel(std::uint32_t depth) {
  EnsureParallelScratch();
  // Phase 1 — fan out over fixed frontier shards: each shard examines its
  // contiguous slice of the (sorted) frontier and buckets every candidate
  // DAG edge by destination range. dist is read-only in this phase, so a
  // vertex is bucketed once per frontier parent that reaches it; all
  // writes go to the shard's private bucket row.
  ParallelShardedLevel(
      pool_.get(), kFrontierShards,
      [this](unsigned, std::size_t shard) {
        const auto [begin, end] =
            ShardBounds(frontier_.size(), shard, kFrontierShards);
        std::vector<TdCandidate>* row = buckets_.data() + shard * num_ranges_;
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId u = frontier_[i];
          for (VertexId v : graph_->neighbors(u)) {
            if (dag_.dist[v] == kUnreachedDistance) {
              row[v >> range_shift_].push_back({v, u});
            }
          }
        }
      },
      // Nothing to merge: phase 2 consumes the buckets in shard order.
      [](std::size_t) {});

  // Phase 2 — fan out over destination ranges: each range owner settles
  // its vertices. First touch assigns dist (and the visited bit); every
  // candidate then folds sigma and appends the parent. Buckets are walked
  // in ascending shard order and each shard bucketed its parents in
  // ascending frontier order, so for any fixed v the contributions arrive
  // in ascending parent id — the exact fold order of the sequential
  // steps, making the (floating-point) sigma sums bit-identical. Every
  // write lands in the owner's range; sigma/dist/mark reads of parents
  // touch the previous level only, which no one writes here.
  LevelSums sums;
  ParallelShardedLevel(
      pool_.get(), num_ranges_,
      [this, depth](unsigned, std::size_t range) {
        std::vector<VertexId>& seg = range_next_[range];
        seg.clear();
        LevelSums seg_sums;
        std::size_t lo_word = frontier_bits_.size();
        std::size_t hi_word = 0;
        for (std::size_t shard = 0; shard < kFrontierShards; ++shard) {
          std::vector<TdCandidate>& bucket =
              buckets_[shard * num_ranges_ + range];
          for (const TdCandidate& c : bucket) {
            if (dag_.dist[c.v] == kUnreachedDistance) {
              dag_.dist[c.v] = depth + 1;
              SetVisited(c.v);
              MarkLevel(c.v);
              lo_word = std::min<std::size_t>(lo_word, c.v >> 6);
              hi_word = std::max<std::size_t>(hi_word, c.v >> 6);
              seg.push_back(c.v);
              seg_sums.out_edges += graph_->degree(c.v);
              seg_sums.in_edges += graph_->in_degree(c.v);
            }
            dag_.sigma[c.v] += dag_.sigma[c.u];
            if (Records<kMode>(c.u)) {
              dag_.pred_storage[dag_.pred_begin[c.v] +
                                dag_.pred_count[c.v]++] = c.u;
              ++seg_sums.recorded;
            }
          }
          bucket.clear();
        }
        // Ranges partition the id space in 64-aligned order, so each owner
        // emits from its own level-bitmap words and the ascending segments
        // concatenate into the globally sorted next frontier.
        EmitAscending(&seg, lo_word, hi_word);
        range_sums_[range] = seg_sums;
      },
      [this, &sums](std::size_t range) {
        next_.insert(next_.end(), range_next_[range].begin(),
                     range_next_[range].end());
        sums.Add(range_sums_[range]);
      });
  return sums;
}

template <BfsSpd::Mode kMode>
BfsSpd::LevelSums BfsSpd::BottomUpLevelParallel(std::uint32_t depth,
                                                std::uint64_t tail_mask) {
  EnsureParallelScratch();
  // Publish the current frontier as a bitmap. The parent test below must
  // not read dist[u]: a neighbor u may be a *newly discovered* vertex
  // whose dist another range owner is writing concurrently. Frontier bits
  // are written before the fan-out, read-only during it, and cleared
  // after, so the bitmap is all-zero between steps.
  for (VertexId u : frontier_) MarkLevel(u);
  const std::uint32_t word_shift = range_shift_ - 6;
  LevelSums sums;
  // One fan-out over word ranges: each owner runs the sequential scan body
  // on its words. Every write — dist, sigma, pred_count, pred_storage, the
  // visited word — targets a vertex in the owned range; parent reads
  // (frontier bit, sigma, mark) touch the stable previous level only. The
  // scan visits candidates in ascending id, so each segment is born
  // sorted.
  ParallelShardedLevel(
      pool_.get(), num_ranges_,
      [this, depth, tail_mask, word_shift](unsigned, std::size_t range) {
        const std::size_t word_begin = range << word_shift;
        const std::size_t word_end =
            std::min(word_begin + (std::size_t{1} << word_shift),
                     visited_.size());
        std::vector<VertexId>& seg = range_next_[range];
        seg.clear();
        LevelSums seg_sums;
        for (std::size_t word = word_begin; word < word_end; ++word) {
          std::uint64_t unvisited = ~visited_[word];
          if (word + 1 == visited_.size()) unvisited &= tail_mask;
          while (unvisited != 0) {
            const VertexId v = static_cast<VertexId>(
                (word << 6) + std::countr_zero(unvisited));
            unvisited &= unvisited - 1;
            SigmaCount sv = 0;
            bool reached = false;
            std::uint32_t parents = 0;
            const std::size_t base = dag_.pred_begin[v];
            for (VertexId u : graph_->in_neighbors(v)) {
              if ((frontier_bits_[u >> 6] >> (u & 63)) & 1) {
                sv += dag_.sigma[u];
                reached = true;
                if (Records<kMode>(u)) {
                  dag_.pred_storage[base + parents++] = u;
                }
              }
            }
            if (reached) {
              dag_.dist[v] = depth + 1;
              dag_.sigma[v] = sv;
              dag_.pred_count[v] = parents;
              SetVisited(v);
              seg.push_back(v);
              seg_sums.out_edges += graph_->degree(v);
              seg_sums.in_edges += graph_->in_degree(v);
              seg_sums.recorded += parents;
            }
          }
        }
        range_sums_[range] = seg_sums;
      },
      [this, &sums](std::size_t range) {
        next_.insert(next_.end(), range_next_[range].begin(),
                     range_next_[range].end());
        sums.Add(range_sums_[range]);
      });
  for (VertexId u : frontier_) {
    frontier_bits_[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
  }
  return sums;
}

}  // namespace mhbc
