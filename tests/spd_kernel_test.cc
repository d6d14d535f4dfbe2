#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <queue>
#include <vector>

#include "exact/brandes.h"
#include "graph/generators.h"
#include "graph/graph_algos.h"
#include "graph/graph_builder.h"
#include "sp/bfs_spd.h"
#include "sp/dependency.h"
#include "support/apsp_oracle.h"
#include "util/rng.h"

// Property and determinism tests for the direction-optimizing SPD kernel:
// direction switching must be observationally invisible — bit-identical
// dist/sigma, the same canonical order, level structure and predecessor
// lists, and bit-identical dependency vectors at every α/β setting,
// including alpha = 0 (every level top-down) — on every graph family the
// generators produce. An independent all-pairs oracle pins dist and sigma.

namespace mhbc {
namespace {

SpdOptions Hybrid(double alpha = 3.0, double beta = 24.0) {
  SpdOptions options;
  options.alpha = alpha;
  options.beta = beta;
  return options;
}

/// alpha = 0 disables bottom-up: every level runs top-down.
SpdOptions TopDown() { return Hybrid(/*alpha=*/0.0); }

/// The random-generator zoo the property tests sweep; low- and
/// high-diameter families, hubs, communities, and a disconnected case.
std::vector<CsrGraph> PropertyGraphs() {
  std::vector<CsrGraph> graphs;
  graphs.push_back(MakeBarabasiAlbert(400, 3, 0xE20));
  graphs.push_back(MakeErdosRenyiGnm(300, 900, 0xE20));
  graphs.push_back(MakeErdosRenyiGnp(250, 0.008, 0xE20));  // disconnected-ish
  graphs.push_back(MakeWattsStrogatz(300, 6, 0.1, 0xE20));
  graphs.push_back(MakeConnectedCaveman(8, 12));
  graphs.push_back(MakeGrid(14, 14));
  graphs.push_back(MakeStar(64));
  graphs.push_back(MakeCompleteBipartite(9, 17));
  return graphs;
}

void ExpectDagsIdentical(const ShortestPathDag& a, const ShortestPathDag& b) {
  ASSERT_EQ(a.source, b.source);
  // Bitwise: dist is integral, sigma double — EQ compares bits for finite
  // values either way.
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.level_offsets, b.level_offsets);
}

TEST(BfsKernelTest, HybridMatchesTopDownOnGeneratorZoo) {
  for (const CsrGraph& g : PropertyGraphs()) {
    const ApspOracle oracle(g);
    BfsSpd top_down(g, TopDown());
    BfsSpd hybrid(g, Hybrid());
    const VertexId step = std::max<VertexId>(1, g.num_vertices() / 7);
    for (VertexId s = 0; s < g.num_vertices(); s += step) {
      top_down.Run(s);
      hybrid.Run(s);
      SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) +
                   " source=" + std::to_string(s));
      ExpectDagsIdentical(top_down.dag(), hybrid.dag());
      const ShortestPathDag& dag = hybrid.dag();
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const double d = oracle.Distance(s, v);
        if (d < 0.0) {
          ASSERT_EQ(dag.dist[v], kUnreachedDistance) << "vertex " << v;
          ASSERT_EQ(dag.sigma[v], 0.0) << "vertex " << v;
        } else {
          ASSERT_EQ(static_cast<double>(dag.dist[v]), d) << "vertex " << v;
          ASSERT_EQ(dag.sigma[v], oracle.PathCount(s, v)) << "vertex " << v;
        }
      }
    }
  }
}

TEST(BfsKernelTest, CanonicalOrderIsAscendingWithinLevels) {
  const CsrGraph g = MakeBarabasiAlbert(500, 4, 0x51);
  for (const SpdOptions& options : {TopDown(), Hybrid()}) {
    BfsSpd bfs(g, options);
    bfs.Run(17);
    const ShortestPathDag& dag = bfs.dag();
    ASSERT_GE(dag.num_levels(), 2u);
    ASSERT_EQ(dag.level_offsets.back(), dag.order.size());
    for (std::size_t l = 0; l < dag.num_levels(); ++l) {
      for (std::size_t i = dag.level_offsets[l]; i < dag.level_offsets[l + 1];
           ++i) {
        EXPECT_EQ(dag.dist[dag.order[i]], l);
        if (i > dag.level_offsets[l]) {
          EXPECT_LT(dag.order[i - 1], dag.order[i]);
        }
      }
    }
  }
}

TEST(BfsKernelTest, HybridRecordsExactPredecessorLists) {
  for (const CsrGraph& g : PropertyGraphs()) {
    BfsSpd hybrid(g, Hybrid());
    hybrid.Run(0);
    const ShortestPathDag& dag = hybrid.dag();
    for (VertexId v : dag.order) {
      // Recorded parents must equal the dist-derived parent set, in
      // ascending order (the fold order the accumulation contract pins).
      std::vector<VertexId> expected;
      for (VertexId u : g.neighbors(v)) {
        if (dag.dist[u] + 1 == dag.dist[v]) expected.push_back(u);
      }
      const auto preds = dag.predecessors(v);
      ASSERT_EQ(preds.size(), expected.size()) << "vertex " << v;
      EXPECT_TRUE(std::equal(preds.begin(), preds.end(), expected.begin()))
          << "vertex " << v;
    }
  }
}

TEST(BfsKernelTest, DependencyVectorsBitIdenticalAcrossAlphaBeta) {
  const CsrGraph g = MakeBarabasiAlbert(600, 3, 0xAB);
  // Baseline: every level top-down.
  BfsSpd top_down(g, TopDown());
  DependencyAccumulator top_down_acc(g);
  // Sweep aggressive-to-disabled switching; every setting must reproduce
  // the top-down dependency vector bit for bit.
  const double alphas[] = {0.0, 0.25, 1.0, 1.5, 8.0, 1e9};
  const double betas[] = {0.0, 2.0, 24.0, 1e9};
  for (VertexId s : {VertexId{0}, VertexId{7}, VertexId{599}}) {
    top_down.Run(s);
    const std::vector<double> baseline = top_down_acc.Accumulate(top_down);
    for (double alpha : alphas) {
      for (double beta : betas) {
        BfsSpd hybrid(g, Hybrid(alpha, beta));
        DependencyAccumulator acc(g);
        hybrid.Run(s);
        const std::vector<double>& deltas = acc.Accumulate(hybrid);
        ASSERT_EQ(deltas.size(), baseline.size());
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          ASSERT_EQ(deltas[v], baseline[v])
              << "alpha=" << alpha << " beta=" << beta << " s=" << s
              << " v=" << v;
        }
      }
    }
  }
}

TEST(BfsKernelTest, ForcedBottomUpIsCorrectOnClosedForms) {
  // alpha=1e9 switches to bottom-up as soon as the frontier has any edges.
  const SpdOptions forced = Hybrid(/*alpha=*/1e9, /*beta=*/0.0);
  {
    const CsrGraph g = MakeStar(40);
    BfsSpd bfs(g, forced);
    bfs.Run(5);  // leaf source: hub at 1, all other leaves at 2
    EXPECT_EQ(bfs.dag().dist[0], 1u);
    EXPECT_EQ(bfs.dag().dist[17], 2u);
    EXPECT_EQ(bfs.dag().sigma[17], 1u);
    EXPECT_GT(bfs.last_stats().bottom_up_levels, 0u);
  }
  {
    const CsrGraph g = MakeCycle(9);
    BfsSpd bfs(g, forced);
    bfs.Run(0);
    EXPECT_EQ(bfs.dag().dist[4], 4u);
    EXPECT_EQ(bfs.dag().dist[5], 4u);
    EXPECT_EQ(bfs.dag().sigma[4], 1u);
  }
  {
    // K_{2,3} from a B-side vertex: two paths to each other B vertex.
    const CsrGraph g = MakeCompleteBipartite(2, 3);
    BfsSpd bfs(g, forced);
    bfs.Run(2);
    EXPECT_EQ(bfs.dag().dist[3], 2u);
    EXPECT_EQ(bfs.dag().sigma[3], 2u);
  }
}

TEST(BfsKernelTest, ExactScoresIdenticalAcrossKernels) {
  const CsrGraph g = MakeWattsStrogatz(200, 6, 0.08, 0x77);
  const std::vector<double> top_down =
      ExactBetweenness(g, Normalization::kPaper, TopDown());
  const std::vector<double> hybrid =
      ExactBetweenness(g, Normalization::kPaper, Hybrid());
  EXPECT_EQ(top_down, hybrid);
  const std::vector<double> parallel_hybrid =
      BrandesBetweenness(g, Normalization::kPaper, 4, Hybrid());
  const std::vector<double> parallel_top_down =
      BrandesBetweenness(g, Normalization::kPaper, 4, TopDown());
  EXPECT_EQ(parallel_top_down, parallel_hybrid);
}

TEST(BfsKernelTest, DirectionSwitchesHappenOnLowDiameterGraphs) {
  // A BA graph is the paper's low-diameter regime: the default heuristics
  // must actually take bottom-up levels there (otherwise the kernel
  // silently degrades to top-down only and the perf claim is vacuous).
  const CsrGraph g = MakeBarabasiAlbert(4000, 4, 0x99);
  BfsSpd hybrid(g, Hybrid());
  hybrid.Run(0);
  EXPECT_GT(hybrid.last_stats().bottom_up_levels, 0u);
  EXPECT_GT(hybrid.last_stats().direction_switches, 0u);
  // And it must examine strictly fewer edges than a top-down-only pass.
  BfsSpd top_down(g, TopDown());
  top_down.Run(0);
  EXPECT_EQ(top_down.last_stats().bottom_up_levels, 0u);
  EXPECT_LT(hybrid.last_stats().edges_examined,
            top_down.last_stats().edges_examined);
}

// Regression: degenerate graphs (zero edges, single vertex) run through the
// direction-optimizing level loop like any other graph and must yield the
// trivial one-vertex DAG.
TEST(BfsKernelTest, DegenerateGraphsYieldTrivialDags) {
  {
    GraphBuilder builder(4);  // four isolated vertices, zero edges
    const CsrGraph g = std::move(builder.Build()).value();
    BfsSpd bfs(g, Hybrid());
    bfs.Run(2);
    EXPECT_EQ(bfs.dag().num_reached(), 1u);
    EXPECT_EQ(bfs.dag().dist[2], 0u);
    EXPECT_EQ(bfs.dag().sigma[2], 1u);
    EXPECT_EQ(bfs.dag().dist[0], kUnreachedDistance);
    // The dependency sweep must also be well-defined on the degenerate dag.
    DependencyAccumulator acc(g);
    const std::vector<double>& deltas = acc.Accumulate(bfs);
    for (double d : deltas) EXPECT_EQ(d, 0.0);
  }
  {
    GraphBuilder builder(1);
    const CsrGraph g = std::move(builder.Build()).value();
    BfsSpd bfs(g, Hybrid());
    bfs.Run(0);
    EXPECT_EQ(bfs.dag().num_reached(), 1u);
    EXPECT_EQ(bfs.dag().num_levels(), 1u);
  }
}

SpdOptions WithThreads(SpdOptions options, unsigned threads,
                       std::uint64_t grain = 0) {
  options.num_threads = threads;
  // grain 0 forces every level through the parallel path, so small test
  // graphs actually exercise the sharded steps.
  options.parallel_grain = grain;
  return options;
}

void ExpectPredsIdentical(const ShortestPathDag& a,
                          const ShortestPathDag& b) {
  for (VertexId v : a.order) {
    const auto pa = a.predecessors(v);
    const auto pb = b.predecessors(v);
    ASSERT_EQ(pa.size(), pb.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin())) << "vertex "
                                                              << v;
  }
}

TEST(BfsKernelTest, IntraPassParallelMatchesSequentialOnGeneratorZoo) {
  // The determinism sweep: top-down-only and hybrid, 2 and 4 intra-pass
  // threads, grain 0 (every level fans out) — dist/sigma/order/levels,
  // predecessor lists, and dependency vectors must be bit-identical to
  // the sequential pass on every graph family.
  for (const CsrGraph& g : PropertyGraphs()) {
    for (const SpdOptions& base : {TopDown(), Hybrid()}) {
      BfsSpd sequential(g, base);
      DependencyAccumulator sequential_acc(g);
      for (unsigned threads : {2u, 4u}) {
        BfsSpd parallel(g, WithThreads(base, threads));
        DependencyAccumulator parallel_acc(g);
        const VertexId step = std::max<VertexId>(1, g.num_vertices() / 5);
        for (VertexId s = 0; s < g.num_vertices(); s += step) {
          SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) + " threads=" +
                       std::to_string(threads) + " source=" +
                       std::to_string(s));
          sequential.Run(s);
          parallel.Run(s);
          ExpectDagsIdentical(sequential.dag(), parallel.dag());
          ExpectPredsIdentical(sequential.dag(), parallel.dag());
          const std::vector<double> baseline =
              sequential_acc.Accumulate(sequential);
          const std::vector<double>& deltas =
              parallel_acc.Accumulate(parallel);
          ASSERT_EQ(deltas, baseline);
        }
      }
    }
  }
}

TEST(BfsKernelTest, IntraPassParallelShardMergeEdgeCases) {
  // Frontier shapes that stress the shard merge: single-vertex levels
  // (path), one giant level behind a hub (star), wide diagonal frontiers
  // (grid), and a tiny graph where most shards and ranges are empty.
  std::vector<CsrGraph> graphs;
  graphs.push_back(MakePath(70));
  graphs.push_back(MakeStar(130));
  graphs.push_back(MakeGrid(11, 17));
  graphs.push_back(MakeCycle(3));
  for (const CsrGraph& g : graphs) {
    for (const SpdOptions& base : {TopDown(), Hybrid(),
                                   Hybrid(/*alpha=*/1e9, /*beta=*/0.0)}) {
      BfsSpd sequential(g, base);
      for (unsigned threads : {1u, 2u, 4u}) {
        BfsSpd parallel(g, WithThreads(base, threads));
        for (VertexId s :
             {VertexId{0}, static_cast<VertexId>(g.num_vertices() / 2),
              static_cast<VertexId>(g.num_vertices() - 1)}) {
          SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) + " threads=" +
                       std::to_string(threads) + " source=" +
                       std::to_string(s));
          sequential.Run(s);
          parallel.Run(s);
          ExpectDagsIdentical(sequential.dag(), parallel.dag());
          ExpectPredsIdentical(sequential.dag(), parallel.dag());
        }
      }
    }
  }
}

TEST(BfsKernelTest, ParallelGrainOnlyChangesWorkNeverResults) {
  // Sweeping the grain moves levels between the sequential and parallel
  // steps; every setting must agree bit-for-bit (including stats, which
  // count examined edges identically on both paths).
  const CsrGraph g = MakeBarabasiAlbert(500, 3, 0x61);
  BfsSpd baseline(g, Hybrid());
  for (std::uint64_t grain : {std::uint64_t{0}, std::uint64_t{64},
                              std::uint64_t{100000}}) {
    BfsSpd swept(g, WithThreads(Hybrid(), 4, grain));
    for (VertexId s : {VertexId{0}, VertexId{250}}) {
      baseline.Run(s);
      swept.Run(s);
      SCOPED_TRACE("grain=" + std::to_string(grain) + " source=" +
                   std::to_string(s));
      ExpectDagsIdentical(baseline.dag(), swept.dag());
      EXPECT_EQ(baseline.last_stats().edges_examined,
                swept.last_stats().edges_examined);
      EXPECT_EQ(baseline.last_stats().bottom_up_levels,
                swept.last_stats().bottom_up_levels);
    }
  }
}

TEST(BfsKernelTest, IntraPassReuseAcrossSourcesResetsState) {
  // Engine reuse with the parallel scratch in play: alternating sources
  // must reproduce fresh-engine passes exactly.
  const CsrGraph g = MakeErdosRenyiGnm(220, 700, 0x43);
  BfsSpd reused(g, WithThreads(Hybrid(), 4));
  for (VertexId s : {VertexId{0}, VertexId{160}, VertexId{9}, VertexId{0}}) {
    reused.Run(s);
    BfsSpd fresh(g, Hybrid());
    fresh.Run(s);
    ExpectDagsIdentical(reused.dag(), fresh.dag());
    ExpectPredsIdentical(reused.dag(), fresh.dag());
  }
}

TEST(BfsKernelTest, IntraPassZeroThreadsStandaloneIsSequential) {
  // The default width is 1, and 0 also means a sequential pass (no pool);
  // only an explicit width above 1 builds an intra-pass pool.
  const CsrGraph g = MakePath(10);
  BfsSpd by_default(g, Hybrid());
  EXPECT_EQ(by_default.intra_pool(), nullptr);
  BfsSpd zero(g, WithThreads(Hybrid(), 0));
  EXPECT_EQ(zero.intra_pool(), nullptr);
  BfsSpd one(g, WithThreads(Hybrid(), 1));
  EXPECT_EQ(one.intra_pool(), nullptr);
  BfsSpd two(g, WithThreads(Hybrid(), 2));
  EXPECT_NE(two.intra_pool(), nullptr);
}

/// `graph` with its ids shuffled by a seeded random permutation, which
/// scatters every BFS level over the id space.
CsrGraph ScatterIds(const CsrGraph& graph, std::uint64_t seed) {
  std::vector<VertexId> new_id(graph.num_vertices());
  std::iota(new_id.begin(), new_id.end(), VertexId{0});
  Rng rng(seed);
  rng.Shuffle(&new_id);
  return ApplyVertexPermutation(graph, new_id);
}

/// Textbook FIFO-queue BFS with path counting: no bitmap, no levels, no
/// sort — an independent dist/sigma reference that scales past the
/// O(n^3) ApspOracle.
void QueueBfs(const CsrGraph& g, VertexId source,
              std::vector<std::uint32_t>* dist,
              std::vector<SigmaCount>* sigma) {
  dist->assign(g.num_vertices(), kUnreachedDistance);
  sigma->assign(g.num_vertices(), 0);
  (*dist)[source] = 0;
  (*sigma)[source] = 1;
  std::queue<VertexId> queue;
  queue.push(source);
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop();
    for (VertexId v : g.neighbors(u)) {
      if ((*dist)[v] == kUnreachedDistance) {
        (*dist)[v] = (*dist)[u] + 1;
        queue.push(v);
      }
      if ((*dist)[v] == (*dist)[u] + 1) (*sigma)[v] += (*sigma)[u];
    }
  }
}

TEST(BfsKernelTest, SortFreeFrontierMatchesReferenceOnScatteredIds) {
  // Top-down levels are emitted either by a word scan of the level bitmap
  // or, when the level is scattered thinly over the id space
  // (BfsSpd::SortsLevel), by a sort. Shuffled ids on the grid and the
  // paths push levels into the sort branch; BA and the complete graph keep
  // levels dense. The 20000-vertex path is long enough for two-vertex
  // segments inside one destination range of the 4-thread step to take
  // the sort branch as well. Every branch must emit the canonical order.
  struct Case {
    CsrGraph graph;
    std::vector<VertexId> sources;
    bool expect_sparse;
    bool expect_sparse_segments;
  };
  const auto spread = [](const CsrGraph& g) {
    const VertexId n = g.num_vertices();
    return std::vector<VertexId>{0, n / 3, n - 1};
  };
  std::vector<Case> cases;
  cases.push_back({ScatterIds(MakeGrid(60, 60), 0x5F1), {}, true, false});
  cases.push_back({ScatterIds(MakePath(2000), 0x5F2), {}, true, false});
  cases.push_back({ScatterIds(MakePath(20000), 0x5F6), {}, true, true});
  cases.back().sources = {cases.back().graph.num_vertices() / 2};
  cases.push_back({ScatterIds(MakeBarabasiAlbert(5000, 4, 0x5F3), 0x5F4),
                   {}, false, false});
  cases.push_back({ScatterIds(MakeComplete(64), 0x5F5), {}, false, false});
  for (Case& c : cases) {
    const CsrGraph& g = c.graph;
    const VertexId n = g.num_vertices();
    if (c.sources.empty()) c.sources = spread(g);
    // Destination-range width of TopDownLevelParallel, in bitmap words:
    // the smallest power of two giving at most kFrontierShards ranges.
    const std::size_t range_words =
        std::bit_ceil(((n + 63) / 64 + BfsSpd::kFrontierShards - 1) /
                      BfsSpd::kFrontierShards);
    BfsSpd top_down(g, TopDown());
    DependencyAccumulator top_down_acc(g);
    DependencyAccumulator acc(g);
    std::size_t sparse_levels = 0;
    std::size_t dense_levels = 0;
    std::size_t sparse_segments = 0;
    for (VertexId s : c.sources) {
      top_down.Run(s);
      const ShortestPathDag& ref = top_down.dag();
      const std::vector<double> ref_deltas = top_down_acc.Accumulate(ref);
      std::vector<std::uint32_t> dist;
      std::vector<SigmaCount> sigma;
      QueueBfs(g, s, &dist, &sigma);
      // Which emission branch each top-down level, and each of its
      // per-range segments, takes. Singleton levels are never sorted, so
      // only levels of two or more vertices count as dense.
      for (std::size_t l = 1; l < ref.num_levels(); ++l) {
        const auto first = ref.order.begin() + ref.level_offsets[l];
        const auto last = ref.order.begin() + ref.level_offsets[l + 1];
        const std::size_t size = static_cast<std::size_t>(last - first);
        if (BfsSpd::SortsLevel(size, (*(last - 1) >> 6) - (*first >> 6))) {
          ++sparse_levels;
        } else if (size >= 2) {
          ++dense_levels;
        }
        for (auto seg = first; seg != last;) {
          const std::size_t range = (*seg >> 6) / range_words;
          auto seg_end = seg;
          while (seg_end != last && (*seg_end >> 6) / range_words == range) {
            ++seg_end;
          }
          sparse_segments += BfsSpd::SortsLevel(
              static_cast<std::size_t>(seg_end - seg),
              (*(seg_end - 1) >> 6) - (*seg >> 6));
          seg = seg_end;
        }
      }
      for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " threads=" +
                     std::to_string(threads) + " source=" +
                     std::to_string(s));
        BfsSpd bfs(g, WithThreads(Hybrid(), threads));
        bfs.Run(s);
        const ShortestPathDag& dag = bfs.dag();
        ASSERT_EQ(dag.level_offsets.back(), dag.order.size());
        std::vector<std::size_t> level_sizes(dag.num_levels(), 0);
        for (VertexId v = 0; v < n; ++v) {
          if (dist[v] != kUnreachedDistance) ++level_sizes.at(dist[v]);
        }
        for (std::size_t l = 0; l < dag.num_levels(); ++l) {
          EXPECT_EQ(dag.level_offsets[l + 1] - dag.level_offsets[l],
                    level_sizes[l])
              << "level " << l;
          for (std::size_t i = dag.level_offsets[l] + 1;
               i < dag.level_offsets[l + 1]; ++i) {
            ASSERT_LT(dag.order[i - 1], dag.order[i]) << "level " << l;
          }
        }
        EXPECT_EQ(dag.dist, dist);
        EXPECT_EQ(dag.sigma, sigma);
        ExpectDagsIdentical(ref, dag);
        ExpectPredsIdentical(ref, dag);
        ASSERT_EQ(acc.Accumulate(dag), ref_deltas);
      }
    }
    EXPECT_GT(dense_levels, 0u) << "n=" << n;
    if (c.expect_sparse) {
      EXPECT_GT(sparse_levels, 0u) << "n=" << n;
    }
    if (c.expect_sparse_segments) {
      EXPECT_GT(sparse_segments, 0u) << "n=" << n;
    }
  }
}

TEST(BfsKernelTest, StatsAccumulateAcrossRuns) {
  const CsrGraph g = MakeBarabasiAlbert(300, 3, 0x31);
  BfsSpd bfs(g, Hybrid());
  bfs.Run(0);
  const std::uint64_t first = bfs.last_stats().edges_examined;
  EXPECT_GT(first, 0u);
  EXPECT_EQ(bfs.total_stats().edges_examined, first);
  bfs.Run(1);
  EXPECT_EQ(bfs.total_stats().edges_examined,
            first + bfs.last_stats().edges_examined);
}

TEST(BfsKernelTest, ReuseAcrossSourcesResetsHybridState) {
  // Alternating sources on one engine: every pass must be identical to a
  // fresh engine's pass (the lazy reset covers dist/sigma/bitmap/preds).
  const CsrGraph g = MakeErdosRenyiGnm(200, 600, 0x42);
  BfsSpd reused(g, Hybrid());
  for (VertexId s : {VertexId{0}, VertexId{150}, VertexId{3}, VertexId{0}}) {
    reused.Run(s);
    BfsSpd fresh(g, Hybrid());
    fresh.Run(s);
    ExpectDagsIdentical(reused.dag(), fresh.dag());
    for (VertexId v : reused.dag().order) {
      const auto a = reused.dag().predecessors(v);
      const auto b = fresh.dag().predecessors(v);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }
}

}  // namespace
}  // namespace mhbc
