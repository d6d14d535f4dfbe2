// Zero screens: an n-bit set per target r of the sources whose dependency
// on r is exactly zero, built from distance-only passes and served by the
// oracle's single-target reads without a pass. The screen must agree with
// the full pass for every source, engines that use screens must report
// every statistical field bit-identically to engines that do not, and
// screens must not appear where they do not apply (hub targets within one
// call, directed or weighted graphs, memo-off engines) or survive an edit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "centrality/engine.h"
#include "exact/dependency_memo.h"
#include "exact/dependency_oracle.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sp/bfs_spd.h"
#include "util/thread_pool.h"

namespace mhbc {
namespace {

bool IsPositiveZero(double value) {
  return std::bit_cast<std::uint64_t>(value) == 0;
}

/// Memo budget for `entries` whole entries on an unweighted graph of `n`
/// vertices (a dependency vector plus hop distances each).
std::size_t BytesFor(std::size_t entries, VertexId n) {
  return entries * n * (sizeof(double) + sizeof(std::uint32_t));
}

EngineOptions WithBudget(std::size_t bytes) {
  EngineOptions options;
  options.dependency_cache_bytes = bytes;
  return options;
}

void ExpectSameStatistics(const EstimateReport& got,
                          const EstimateReport& want) {
  EXPECT_EQ(got.vertex, want.vertex);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
            std::bit_cast<std::uint64_t>(want.value));
  EXPECT_EQ(got.std_error, want.std_error);
  EXPECT_EQ(got.ci_half_width, want.ci_half_width);
  EXPECT_EQ(got.ess, want.ess);
  EXPECT_EQ(got.acceptance_rate, want.acceptance_rate);
  EXPECT_EQ(got.samples_used, want.samples_used);
  EXPECT_EQ(got.converged, want.converged);
}

/// Scoped reads of `target` on an oracle with a one-entry memo, over
/// every source in turn, until the target's screen exists (a screen is
/// built once the target has paid deg + 1 misses). Returns the screen;
/// every read on the way must equal the full pass' value bit for bit.
DependencyMemo::ScreenPtr ForceScreen(const CsrGraph& graph, VertexId target,
                                      DependencyOracle* reference) {
  auto memo = std::make_shared<DependencyMemo>();
  DependencyOracle oracle(graph, SpdOptions(), memo);
  oracle.set_cache_capacity(1);
  oracle.set_scoped_reads(true);
  const VertexId n = graph.num_vertices();
  for (std::uint64_t read = 0; read < 3ull * n + 3; ++read) {
    const VertexId source = static_cast<VertexId>(read % n);
    const double got = oracle.Dependency(source, target);
    const double want = reference->Dependencies(source)[target];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "source " << source << " target " << target;
    if (DependencyMemo::ScreenPtr screen = memo->FindScreen(target)) {
      EXPECT_EQ(oracle.screen_build_passes(), graph.degree(target) + 1u);
      return screen;
    }
  }
  return nullptr;
}

/// Hub, median and minimum-degree vertices, plus a leaf and an isolated
/// vertex where the graph has one.
std::vector<std::pair<std::string, VertexId>> TargetsOf(const CsrGraph& g) {
  std::vector<VertexId> by_degree(g.num_vertices());
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&g](VertexId a, VertexId b) {
                     return g.degree(a) < g.degree(b);
                   });
  std::vector<std::pair<std::string, VertexId>> targets = {
      {"hub", by_degree.back()},
      {"median", by_degree[by_degree.size() / 2]},
      {"min-degree", by_degree.front()}};
  for (VertexId v : by_degree) {
    if (g.degree(v) == 1) {
      targets.emplace_back("leaf", v);
      break;
    }
  }
  if (g.degree(by_degree.front()) == 0) {
    targets.emplace_back("isolated", by_degree.front());
  }
  return targets;
}

TEST(ZeroScreenTest, ScreenIsExactlyTheZeroDependencies) {
  const CsrGraph gnp = MakeErdosRenyiGnp(240, 0.008, 17);
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  graphs.emplace_back("ba", MakeBarabasiAlbert(300, 2, 3));
  graphs.emplace_back("grid-30x30", MakeGrid(30, 30));
  graphs.emplace_back("caveman", MakeConnectedCaveman(6, 8));
  graphs.emplace_back("star", MakeStar(40));
  graphs.emplace_back("path", MakePath(50));
  graphs.emplace_back("gnp-disconnected", gnp);
  graphs.emplace_back("bipartite", MakeCompleteBipartite(5, 9));
  bool saw_leaf = false;
  bool saw_isolated = false;
  for (const auto& [name, graph] : graphs) {
    DependencyOracle reference(graph);
    for (const auto& [kind, target] : TargetsOf(graph)) {
      SCOPED_TRACE(name + " " + kind + " target " + std::to_string(target));
      saw_leaf = saw_leaf || kind == "leaf";
      saw_isolated = saw_isolated || kind == "isolated";
      const DependencyMemo::ScreenPtr screen =
          ForceScreen(graph, target, &reference);
      ASSERT_NE(screen, nullptr);
      // The source itself is in its own screen.
      EXPECT_TRUE(screen->Contains(target));
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        const double delta = reference.Dependencies(v)[target];
        EXPECT_EQ(screen->Contains(v), IsPositiveZero(delta))
            << "source " << v << " delta " << delta;
      }
    }
  }
  EXPECT_TRUE(saw_leaf);
  EXPECT_TRUE(saw_isolated);
}

std::vector<EstimateRequest> Requests() {
  std::vector<EstimateRequest> requests;
  for (EstimatorKind kind :
       {EstimatorKind::kMetropolisHastings, EstimatorKind::kMhRaoBlackwell,
        EstimatorKind::kUniformSource, EstimatorKind::kDistanceProportional}) {
    for (BudgetKind budget :
         {BudgetKind::kSamples, BudgetKind::kStandardError}) {
      EstimateRequest request;
      request.kind = kind;
      request.budget = budget;
      request.samples = 120;
      request.target_std_error = 1e-4;
      request.max_samples = 240;
      request.seed = 0x2e0 + requests.size();
      requests.push_back(request);
    }
  }
  return requests;
}

TEST(ZeroScreenTest, ScreenedEngineMatchesFullAndMemoOffEngines) {
  constexpr VertexId kN = 500;
  const CsrGraph graph = MakeBarabasiAlbert(kN, 2, 41);
  BetweennessEngine full(graph);  // capacity n: full passes, no screens
  auto memo = std::make_shared<DependencyMemo>();
  BetweennessEngine small(graph, WithBudget(BytesFor(32, kN)), memo);
  BetweennessEngine none(graph, WithBudget(0));
  std::uint64_t reported = 0;
  for (const EstimateRequest& request : Requests()) {
    for (const auto& [kind, r] : TargetsOf(graph)) {
      SCOPED_TRACE(std::string(EstimatorKindName(request.kind)) + " " + kind +
                   " vertex " + std::to_string(r));
      const auto want = full.Estimate(r, request);
      const auto got_small = small.Estimate(r, request);
      const auto got_none = none.Estimate(r, request);
      ASSERT_TRUE(want.ok() && got_small.ok() && got_none.ok());
      ExpectSameStatistics(got_small.value(), want.value());
      ExpectSameStatistics(got_none.value(), want.value());
      EXPECT_EQ(want.value().screened_reads, 0u);
      EXPECT_EQ(got_none.value().screened_reads, 0u);
      reported += got_small.value().screened_reads;
    }
  }
  EXPECT_GT(small.screened_reads(), 0u);
  EXPECT_EQ(reported, small.screened_reads());
  EXPECT_GT(memo->screens(), 0u);
  EXPECT_EQ(full.screened_reads(), 0u);
  EXPECT_EQ(none.screened_reads(), 0u);
  // Screened reads are not memo hits, and they save passes.
  EXPECT_LT(small.total_sp_passes(), none.total_sp_passes());
}

TEST(ZeroScreenTest, HubBuildsNoScreenWithinOneCall) {
  constexpr VertexId kN = 3000;
  const CsrGraph graph = MakeBarabasiAlbert(kN, 3, 7);
  VertexId hub = 0;
  for (VertexId v = 0; v < kN; ++v) {
    if (graph.degree(v) > graph.degree(hub)) hub = v;
  }
  ASSERT_GT(graph.degree(hub), 40u);
  for (EstimatorKind kind :
       {EstimatorKind::kMetropolisHastings, EstimatorKind::kMhRaoBlackwell}) {
    auto memo = std::make_shared<DependencyMemo>();
    BetweennessEngine engine(graph, WithBudget(BytesFor(16, kN)), memo);
    EstimateRequest request;
    request.kind = kind;
    request.samples = 32;
    request.seed = 5;
    const auto report = engine.Estimate(hub, request);
    ASSERT_TRUE(report.ok());
    EXPECT_LE(report.value().sp_passes, graph.degree(hub));
    EXPECT_EQ(memo->screens(), 0u);
    EXPECT_EQ(engine.screened_reads(), 0u);
  }
}

/// Runs every request on a few low-degree targets and returns the memo's
/// screen count.
std::size_t ScreensAfterReads(const CsrGraph& graph, const EngineOptions& options,
                              const std::vector<EstimatorKind>& kinds,
                              std::uint64_t* screened) {
  auto memo = std::make_shared<DependencyMemo>();
  BetweennessEngine engine(graph, options, memo);
  for (EstimatorKind kind : kinds) {
    for (VertexId r : {VertexId{3}, VertexId{90}, VertexId{150}}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        EstimateRequest request;
        request.kind = kind;
        request.samples = 100;
        request.seed = seed;
        EXPECT_TRUE(engine.Estimate(r, request).ok());
      }
    }
  }
  *screened = engine.screened_reads();
  return memo->screens();
}

TEST(ZeroScreenTest, NoScreensOnDirectedWeightedOrMemoOffEngines) {
  constexpr VertexId kN = 200;
  const std::vector<EstimatorKind> chain_and_uniform = {
      EstimatorKind::kMhRaoBlackwell, EstimatorKind::kUniformSource};
  std::uint64_t screened = 0;

  // The control: the same reads on an undirected unweighted graph with a
  // small memo do build screens.
  const CsrGraph undirected = MakeBarabasiAlbert(kN, 2, 11);
  EXPECT_GT(ScreensAfterReads(undirected, WithBudget(BytesFor(8, kN)),
                              chain_and_uniform, &screened),
            0u);
  EXPECT_GT(screened, 0u);

  const CsrGraph directed = MakeRandomDirected(kN, 3 * kN, 0x2e);
  ASSERT_TRUE(directed.directed());
  EXPECT_EQ(ScreensAfterReads(directed, WithBudget(BytesFor(8, kN)),
                              chain_and_uniform, &screened),
            0u);
  EXPECT_EQ(screened, 0u);

  const CsrGraph weighted = AssignUniformWeights(undirected, 1.0, 4.0, 0);
  EXPECT_EQ(ScreensAfterReads(weighted, WithBudget(BytesFor(8, kN)),
                              chain_and_uniform, &screened),
            0u);
  EXPECT_EQ(screened, 0u);

  EXPECT_EQ(ScreensAfterReads(undirected, WithBudget(0), chain_and_uniform,
                              &screened),
            0u);
  EXPECT_EQ(screened, 0u);
}

TEST(ZeroScreenTest, ApplyDeltaDropsScreensAndMatchesColdEngine) {
  constexpr VertexId kN = 400;
  const CsrGraph graph = MakeBarabasiAlbert(kN, 2, 29);
  const EngineOptions options = WithBudget(BytesFor(32, kN));
  auto memo = std::make_shared<DependencyMemo>();
  BetweennessEngine engine(graph, options, memo);
  DynamicGraph next(graph);
  const std::vector<VertexId> targets = {7, 200, kN - 1};
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (const EstimateRequest& request : Requests()) {
      for (VertexId r : targets) ASSERT_TRUE(engine.Estimate(r, request).ok());
    }
    ASSERT_GT(memo->screens(), 0u);
    const GraphDelta delta = MakeRandomEditScript(next.Csr(), 3, 300 + round);
    ASSERT_TRUE(next.Apply(delta).ok());
    ASSERT_TRUE(engine.ApplyDelta(delta).ok());
    EXPECT_EQ(memo->screens(), 0u);

    BetweennessEngine cold(next.Csr(), options);
    for (const EstimateRequest& request : Requests()) {
      for (VertexId r : targets) {
        const auto got = engine.Estimate(r, request);
        const auto want = cold.Estimate(r, request);
        ASSERT_TRUE(got.ok() && want.ok());
        ExpectSameStatistics(got.value(), want.value());
      }
    }
  }
}

TEST(ZeroScreenTest, EditThatGivesTheTargetAChildServesNoOldScreen) {
  // Path 0-1-2-3-4 plus an isolated vertex 5. The endpoint 4 is a leaf:
  // nobody depends on it, so its screen holds every source. Joining 5 to
  // 4 makes every path from 0..3 to 5 run through 4; a stale screen
  // would still answer 0.
  GraphBuilder builder(6);
  for (VertexId v = 0; v + 1 < 5; ++v) builder.AddEdge(v, v + 1);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  const CsrGraph& graph = built.value();
  auto memo = std::make_shared<DependencyMemo>();
  DependencyOracle oracle(graph, SpdOptions(), memo);
  oracle.set_cache_capacity(2);
  oracle.set_scoped_reads(true);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(oracle.Dependency(v, 4), 0.0);
  ASSERT_NE(memo->FindScreen(4), nullptr);
  EXPECT_GT(oracle.screened_reads(), 0u);

  DynamicGraph next(graph);
  GraphDelta delta;
  delta.AddEdge(4, 5);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(next.Apply(delta, &resolved).ok());
  oracle.ApplyGraphDelta(next.Csr(), resolved);
  EXPECT_EQ(memo->FindScreen(4), nullptr);
  const std::uint64_t screened = oracle.screened_reads();
  DependencyOracle reference(next.Csr());
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(oracle.Dependency(v, 4), 1.0) << "source " << v;
    EXPECT_EQ(reference.Dependencies(v)[4], 1.0);
  }
  EXPECT_EQ(oracle.screened_reads(), screened);
}

TEST(ZeroScreenTest, EnginesSharingAMemoBuildAndServeScreensConcurrently) {
  // Screens and miss counts live in the shared memo: engines on the
  // pool's workers build and read them at once, and every report still matches
  // a memo-off engine's bit for bit.
  constexpr VertexId kN = 600;
  const CsrGraph graph = MakeBarabasiAlbert(kN, 2, 53);
  const EngineOptions options = WithBudget(BytesFor(16, kN));
  const std::vector<VertexId> targets = {5, 300, kN - 1};
  auto memo = std::make_shared<DependencyMemo>();
  struct Session {
    std::vector<EstimateReport> reports;
    std::uint64_t screened = 0;
  };
  constexpr std::size_t kSessions = 3;
  ThreadPool pool(kSessions);
  const std::vector<Session> sessions = ParallelMap<Session>(
      &pool, kSessions, [&](unsigned, std::size_t) {
        Session session;
        BetweennessEngine engine(graph, options, memo);
        for (const EstimateRequest& request : Requests()) {
          for (VertexId r : targets) {
            const auto report = engine.Estimate(r, request);
            if (report.ok()) session.reports.push_back(report.value());
          }
        }
        session.screened = engine.screened_reads();
        return session;
      });
  BetweennessEngine none(graph, WithBudget(0));
  std::vector<EstimateReport> want;
  for (const EstimateRequest& request : Requests()) {
    for (VertexId r : targets) {
      const auto report = none.Estimate(r, request);
      ASSERT_TRUE(report.ok());
      want.push_back(report.value());
    }
  }
  std::uint64_t total_screened = 0;
  for (const Session& session : sessions) {
    ASSERT_EQ(session.reports.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ExpectSameStatistics(session.reports[i], want[i]);
    }
    total_screened += session.screened;
  }
  EXPECT_GT(total_screened, 0u);
  EXPECT_GT(memo->screens(), 0u);
}

void ExpectDistancePassMatchesFull(const CsrGraph& graph, SpdOptions options) {
  BfsSpd full(graph, options);
  BfsSpd distances(graph, options);
  for (VertexId s = 0; s < graph.num_vertices();
       s += std::max<VertexId>(1, graph.num_vertices() / 13)) {
    full.Run(s);
    distances.RunDistances(s);
    const ShortestPathDag& want = full.dag();
    const ShortestPathDag& got = distances.dag();
    EXPECT_EQ(got.dist, want.dist) << "source " << s;
    EXPECT_EQ(got.sigma, want.sigma) << "source " << s;
    EXPECT_EQ(got.order, want.order) << "source " << s;
    EXPECT_EQ(got.level_offsets, want.level_offsets) << "source " << s;
    EXPECT_TRUE(std::all_of(got.pred_count.begin(), got.pred_count.end(),
                            [](std::uint32_t c) { return c == 0; }))
        << "source " << s;
    EXPECT_EQ(distances.last_stats().pred_edges_recorded, 0u);
    EXPECT_EQ(distances.last_stats().edges_examined,
              full.last_stats().edges_examined);
  }
}

TEST(ZeroScreenTest, DistancePassMatchesFullPass) {
  SpdOptions sequential;
  SpdOptions parallel;
  parallel.num_threads = 3;
  parallel.parallel_grain = 1;
  SpdOptions top_down;
  top_down.alpha = 0.0;
  for (const SpdOptions& options : {sequential, parallel, top_down}) {
    ExpectDistancePassMatchesFull(MakeBarabasiAlbert(2000, 3, 5), options);
    ExpectDistancePassMatchesFull(MakeGrid(30, 30), options);
    ExpectDistancePassMatchesFull(MakeErdosRenyiGnp(300, 0.008, 17), options);
    ExpectDistancePassMatchesFull(MakeRandomDirected(800, 2400, 9), options);
  }
}

TEST(ZeroScreenTest, OracleDistancePassIsCounted) {
  const CsrGraph graph = MakeGrid(12, 12);
  DependencyOracle oracle(graph);
  const std::vector<std::uint32_t> dist = oracle.RunPass(5).dist;
  EXPECT_EQ(oracle.RunDistancePass(5).dist, dist);
  EXPECT_EQ(oracle.num_passes(), 2u);

  // Weighted graphs run the full weighted pass.
  const CsrGraph weighted = AssignUniformWeights(graph, 1.0, 4.0, 0);
  DependencyOracle weighted_oracle(weighted);
  const std::vector<double> wdist = weighted_oracle.RunPass(5).wdist;
  EXPECT_EQ(weighted_oracle.RunDistancePass(5).wdist, wdist);
  EXPECT_EQ(weighted_oracle.num_passes(), 2u);
}

}  // namespace
}  // namespace mhbc
