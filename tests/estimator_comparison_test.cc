#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "centrality/engine.h"
#include "core/theory.h"
#include "exact/brandes.h"
#include "graph/generators.h"

namespace mhbc {
namespace {

/// Cross-estimator property sweep: on separator-style targets every
/// estimator in the library agrees with the exact score at a generous
/// budget. Parameterized over (graph family, seed).
class EstimatorComparisonTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  struct Case {
    CsrGraph graph;
    VertexId target;
  };

  Case MakeCase() const {
    const auto [family, seed] = GetParam();
    switch (family) {
      case 0: {
        // Barbell bridge.
        return {MakeBarbell(5, 1), 5};
      }
      case 1: {
        // Star center.
        return {MakeStar(24), 0};
      }
      default: {
        // Caveman gateway vertex (high betweenness).
        CsrGraph g = MakeConnectedCaveman(4, 6);
        return {std::move(g), 5};  // last vertex of community 0 (gateway)
      }
    }
  }
};

TEST_P(EstimatorComparisonTest, AllEstimatorsAgreeAtLargeBudget) {
  const Case c = MakeCase();
  const double exact = ExactBetweennessSingle(c.graph, c.target);
  ASSERT_GT(exact, 0.0);
  // The MH chain average converges to E_pi[f], not the exact score
  // (see core/theory.h); every other estimator here is unbiased.
  const double mh_reference =
      ChainLimitEstimate(DependencyProfile(c.graph, c.target));
  const auto [family, seed] = GetParam();
  for (EstimatorKind kind :
       {EstimatorKind::kMetropolisHastings, EstimatorKind::kUniformSource,
        EstimatorKind::kDistanceProportional, EstimatorKind::kShortestPath,
        EstimatorKind::kLinearScaling}) {
    EstimateRequest request;
    request.kind = kind;
    request.samples = 12'000;
    request.seed = seed;
    const auto result = BetweennessEngine(c.graph).Estimate(c.target, request);
    ASSERT_TRUE(result.ok()) << EstimatorKindName(kind);
    const double reference =
        kind == EstimatorKind::kMetropolisHastings ? mh_reference : exact;
    EXPECT_NEAR(result.value().value, reference, 0.12 * reference + 0.01)
        << EstimatorKindName(kind) << " family " << family;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, EstimatorComparisonTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<std::uint64_t>(5, 6)));

}  // namespace
}  // namespace mhbc
