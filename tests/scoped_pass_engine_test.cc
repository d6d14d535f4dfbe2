// Target-scoped reads through the oracle and the engine: an engine whose
// memo cannot hold a pass from every source answers single-target calls
// with scoped passes and scalar memo entries, and every statistical field
// stays bit-identical to an engine that runs full passes. Multi-target
// calls keep full passes and their pass counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "centrality/engine.h"
#include "exact/dependency_memo.h"
#include "exact/dependency_oracle.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"

namespace mhbc {
namespace {

constexpr VertexId kN = 400;

/// Memo budget for `entries` whole entries on an unweighted graph of kN
/// vertices (a dependency vector plus hop distances each).
std::size_t BytesFor(std::size_t entries) {
  return entries * kN * (sizeof(double) + sizeof(std::uint32_t));
}

EngineOptions WithBudget(std::size_t bytes) {
  EngineOptions options;
  options.dependency_cache_bytes = bytes;
  return options;
}

void ExpectSameStatistics(const EstimateReport& got,
                          const EstimateReport& want) {
  EXPECT_EQ(got.vertex, want.vertex);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.std_error, want.std_error);
  EXPECT_EQ(got.ci_half_width, want.ci_half_width);
  EXPECT_EQ(got.ess, want.ess);
  EXPECT_EQ(got.acceptance_rate, want.acceptance_rate);
  EXPECT_EQ(got.samples_used, want.samples_used);
  EXPECT_EQ(got.converged, want.converged);
}

/// Scalar entries the memo holds.
std::size_t ScalarEntries(const DependencyMemo& memo) {
  std::size_t scalars = 0;
  for (VertexId s = 0; s < kN; ++s) {
    const DependencyMemo::EntryPtr entry = memo.Find(s);
    if (entry && entry->scalar()) ++scalars;
  }
  return scalars;
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
      request.samples = 150;
      request.target_std_error = 1e-4;
      request.max_samples = 300;
      request.seed = 0x5c0 + requests.size();
      requests.push_back(request);
    }
  }
  return requests;
}

TEST(ScopedPassEngineTest, SmallMemoReportsMatchFullPassEngine) {
  const CsrGraph graph = MakeBarabasiAlbert(kN, 3, 5);
  const std::vector<VertexId> targets = {0, 7, 150, kN - 1};
  BetweennessEngine full(graph);  // capacity n: full passes throughout
  auto memo = std::make_shared<DependencyMemo>();
  BetweennessEngine small(graph, WithBudget(BytesFor(64)), memo);
  BetweennessEngine none(graph, WithBudget(0));
  for (const EstimateRequest& request : Requests()) {
    for (VertexId r : targets) {
      SCOPED_TRACE(std::string(EstimatorKindName(request.kind)) + " vertex " +
                   std::to_string(r));
      const auto want = full.Estimate(r, request);
      const auto got_small = small.Estimate(r, request);
      const auto got_none = none.Estimate(r, request);
      ASSERT_TRUE(want.ok() && got_small.ok() && got_none.ok());
      ExpectSameStatistics(got_small.value(), want.value());
      ExpectSameStatistics(got_none.value(), want.value());
    }
  }
  // The small memo kept scalar answers, not vectors.
  EXPECT_GT(ScalarEntries(*memo), 0u);
  EXPECT_EQ(ScalarEntries(*memo), memo->size());
}

TEST(ScopedPassEngineTest, MultiTargetCallsKeepFullPassCounts) {
  // Capacity n - 1 is "too small for every source" yet never fills here,
  // so a multi-target call must cost exactly what it costs at capacity n.
  const CsrGraph graph = MakeBarabasiAlbert(kN, 3, 9);
  BetweennessEngine full(graph);
  auto memo = std::make_shared<DependencyMemo>();
  BetweennessEngine small(graph, WithBudget(BytesFor(kN - 1)), memo);
  EstimateRequest request;
  request.samples = 150;
  request.seed = 31;
  const std::vector<VertexId> vertices = {3, 40, 200};
  const auto want = full.EstimateMany(vertices, request);
  const auto got = small.EstimateMany(vertices, request);
  ASSERT_TRUE(want.ok() && got.ok());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    ExpectSameStatistics(got.value()[i], want.value()[i]);
    EXPECT_EQ(got.value()[i].sp_passes, want.value()[i].sp_passes);
    EXPECT_EQ(got.value()[i].cache_hit, want.value()[i].cache_hit);
  }
  EXPECT_EQ(ScalarEntries(*memo), 0u);

  const std::uint64_t full_before = full.total_sp_passes();
  const std::uint64_t small_before = small.total_sp_passes();
  const auto full_rank = full.RankTargets({5, 60, 300}, 400, 17);
  const auto small_rank = small.RankTargets({5, 60, 300}, 400, 17);
  ASSERT_TRUE(full_rank.ok() && small_rank.ok());
  EXPECT_EQ(small_rank.value(), full_rank.value());
  EXPECT_EQ(small.total_sp_passes() - small_before,
            full.total_sp_passes() - full_before);

  // A one-vertex EstimateMany reads one target: its passes are scoped.
  auto fresh_memo = std::make_shared<DependencyMemo>();
  BetweennessEngine fresh(graph, WithBudget(BytesFor(kN - 1)), fresh_memo);
  const auto single = fresh.EstimateMany({kN - 1}, request);
  ASSERT_TRUE(single.ok());
  EXPECT_GT(ScalarEntries(*fresh_memo), 0u);
  EXPECT_EQ(ScalarEntries(*fresh_memo), fresh_memo->size());
  const auto reference =
      BetweennessEngine(graph).EstimateMany({kN - 1}, request);
  ASSERT_TRUE(reference.ok());
  ExpectSameStatistics(single.value()[0], reference.value()[0]);
}

TEST(ScopedPassEngineTest, AdaptiveChainReplaysHitScalarEntries) {
  // kStandardError re-runs doubling chains from the request seed, so
  // every chain replays its predecessor's proposals: scalar entries for
  // the one target must serve them.
  const CsrGraph graph = MakeBarabasiAlbert(kN, 3, 13);
  BetweennessEngine small(graph, WithBudget(BytesFor(kN / 2)));
  EstimateRequest request;
  request.budget = BudgetKind::kStandardError;
  request.target_std_error = 1e-9;
  request.max_samples = 512;
  request.seed = 77;
  const auto report = small.Estimate(11, request);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().samples_used, 512u);
  EXPECT_TRUE(report.value().cache_hit);
  EXPECT_GT(small.dependency_cache_hits(), 0u);
  EXPECT_LT(report.value().sp_passes, 128u + 256u + 512u);
  const auto want = BetweennessEngine(graph).Estimate(11, request);
  ASSERT_TRUE(want.ok());
  ExpectSameStatistics(report.value(), want.value());
}

TEST(ScopedPassEngineTest, DependenciesReplaceAScalarEntry) {
  const CsrGraph graph = MakeBarabasiAlbert(kN, 3, 21);
  DependencyOracle reference(graph);
  const VertexId s = 12;
  const VertexId r = 3;
  const VertexId other = 250;
  const std::vector<double>& want = reference.Dependencies(s);

  auto memo = std::make_shared<DependencyMemo>();
  DependencyOracle oracle(graph, SpdOptions(), memo);
  oracle.set_cache_capacity(8);
  oracle.set_scoped_reads(true);
  EXPECT_EQ(oracle.Dependency(s, r), want[r]);
  ASSERT_NE(memo->Find(s), nullptr);
  EXPECT_TRUE(memo->Find(s)->scalar());
  EXPECT_EQ(memo->Find(s)->target, r);
  EXPECT_EQ(oracle.Dependency(s, r), want[r]);  // scalar hit
  EXPECT_EQ(oracle.num_passes(), 1u);
  EXPECT_EQ(oracle.cache_hits(), 1u);

  // Another target misses; its scalar takes the slot.
  EXPECT_EQ(oracle.Dependency(s, other), want[other]);
  EXPECT_EQ(oracle.num_passes(), 2u);
  EXPECT_EQ(memo->Find(s)->target, other);

  // A full read misses the scalar and replaces it with the whole pass,
  // which then serves every target.
  EXPECT_EQ(oracle.Dependencies(s), want);
  EXPECT_EQ(oracle.num_passes(), 3u);
  EXPECT_FALSE(memo->Find(s)->scalar());
  EXPECT_EQ(oracle.Dependency(s, r), want[r]);
  EXPECT_EQ(oracle.Dependency(s, other), want[other]);
  EXPECT_EQ(oracle.num_passes(), 3u);
  EXPECT_EQ(memo->size(), 1u);
}

TEST(ScopedPassEngineTest, WeightedReadsStayFull) {
  const CsrGraph graph =
      AssignUniformWeights(MakeBarabasiAlbert(kN, 3, 23), 1.0, 4.0, 0);
  auto memo = std::make_shared<DependencyMemo>();
  DependencyOracle oracle(graph, SpdOptions(), memo);
  oracle.set_cache_capacity(8);
  oracle.set_scoped_reads(true);
  DependencyOracle reference(graph);
  EXPECT_EQ(oracle.Dependency(9, 4), reference.Dependencies(9)[4]);
  ASSERT_NE(memo->Find(9), nullptr);
  EXPECT_FALSE(memo->Find(9)->scalar());
}

TEST(ScopedPassEngineTest, ApplyDeltaDropsScalarsAndMatchesColdEngine) {
  const CsrGraph graph = MakeBarabasiAlbert(kN, 3, 29);
  const EngineOptions options = WithBudget(BytesFor(64));
  auto memo = std::make_shared<DependencyMemo>();
  BetweennessEngine engine(graph, options, memo);
  // Shares the memo and rebinds to every batch after `engine` does.
  BetweennessEngine twin(graph, options, memo);
  DynamicGraph next(graph);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (const EstimateRequest& request : Requests()) {
      ASSERT_TRUE(engine.Estimate(7, request).ok());
    }
    // Whole entries, which an edit may let survive: full reads replace
    // half the scalars in place, so no insert finds a new key and clears
    // the memo.
    {
      DependencyOracle whole(next.Csr(), SpdOptions(), memo);
      std::size_t replace = ScalarEntries(*memo) / 2;
      for (VertexId s = 0; s < kN && replace > 0; ++s) {
        const DependencyMemo::EntryPtr entry = memo->Find(s);
        if (!entry || !entry->scalar()) continue;
        whole.Dependencies(s);
        --replace;
      }
    }
    const std::size_t scalars = ScalarEntries(*memo);
    ASSERT_GT(scalars, 0u);
    ASSERT_GT(memo->size(), scalars);
    const GraphDelta delta = MakeRandomEditScript(next.Csr(), 3, 100 + round);
    ASSERT_TRUE(next.Apply(delta).ok());
    ASSERT_TRUE(engine.ApplyDelta(delta).ok());
    EXPECT_EQ(ScalarEntries(*memo), 0u);
    // The twin's rebind to the same batch finds nothing left to drop.
    const std::size_t held = memo->size();
    const std::uint64_t dropped = memo->invalidated_entries();
    ASSERT_TRUE(twin.ApplyDelta(delta).ok());
    EXPECT_EQ(memo->size(), held);
    EXPECT_EQ(memo->invalidated_entries(), dropped);

    BetweennessEngine cold(next.Csr(), options);
    for (const EstimateRequest& request : Requests()) {
      for (VertexId r : {VertexId{7}, VertexId{kN - 2}}) {
        const auto got = engine.Estimate(r, request);
        const auto want = cold.Estimate(r, request);
        ASSERT_TRUE(got.ok() && want.ok());
        ExpectSameStatistics(got.value(), want.value());
      }
    }
  }
}

}  // namespace
}  // namespace mhbc
