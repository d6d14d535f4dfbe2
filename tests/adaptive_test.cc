#include <gtest/gtest.h>

#include <cmath>

#include "centrality/engine.h"
#include "core/theory.h"
#include "exact/brandes.h"
#include "graph/generators.h"

namespace mhbc {
namespace {

// The standard-error budget on the paper's chain: doubling re-runs stop
// once z * std_error <= eps, i.e. std_error <= eps / z.
EstimateRequest AdaptiveChainRequest(double eps, std::uint64_t seed) {
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.budget = BudgetKind::kStandardError;
  request.target_std_error = eps / request.z;
  request.seed = seed;
  return request;
}

TEST(AdaptiveTest, ConvergesOnSeparatorTarget) {
  const CsrGraph g = MakeBarbell(10, 1);
  const VertexId bridge = 10;
  const double eps = 0.02;
  const auto result =
      BetweennessEngine(g).Estimate(bridge, AdaptiveChainRequest(eps, 3));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().converged);
  EXPECT_LE(result.value().ci_half_width, eps);
  const double limit = ChainLimitEstimate(DependencyProfile(g, bridge));
  EXPECT_NEAR(result.value().value, limit, 3 * eps);
}

TEST(AdaptiveTest, TighterEpsilonCostsMoreIterations) {
  const CsrGraph g = MakeConnectedCaveman(5, 8);
  const VertexId gateway = 7;
  BetweennessEngine engine(g);
  const auto a = engine.Estimate(gateway, AdaptiveChainRequest(0.1, 5));
  const auto b = engine.Estimate(gateway, AdaptiveChainRequest(0.01, 5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value().converged);
  EXPECT_TRUE(b.value().converged);
  EXPECT_GE(b.value().samples_used, a.value().samples_used);
}

TEST(AdaptiveTest, RespectsMaxIterationCap) {
  const CsrGraph g = MakeBarabasiAlbert(100, 2, 7);
  EstimateRequest request = AdaptiveChainRequest(1e-9, 9);  // unreachable
  request.max_samples = 512;
  const auto result = BetweennessEngine(g).Estimate(0, request);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().converged);
  EXPECT_EQ(result.value().samples_used, 512u);
}

TEST(AdaptiveTest, ZeroScoreTargetConvergesImmediately) {
  // All f-values are 0: the CI collapses at the first chain, whose length
  // is the engine's first adaptive batch (128).
  const CsrGraph g = MakeStar(12);
  const auto result = BetweennessEngine(g).Estimate(
      /*leaf=*/3, AdaptiveChainRequest(0.05, 11));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().converged);
  EXPECT_EQ(result.value().samples_used, 128u);
  EXPECT_DOUBLE_EQ(result.value().value, 0.0);
}

TEST(AdaptiveTest, DeterministicForSeed) {
  const CsrGraph g = MakeConnectedCaveman(4, 6);
  const EstimateRequest request = AdaptiveChainRequest(0.05, 13);
  const auto a = BetweennessEngine(g).Estimate(5, request);
  const auto b = BetweennessEngine(g).Estimate(5, request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().samples_used, b.value().samples_used);
  EXPECT_DOUBLE_EQ(a.value().value, b.value().value);
}

}  // namespace
}  // namespace mhbc
