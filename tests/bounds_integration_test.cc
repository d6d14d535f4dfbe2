#include <gtest/gtest.h>

#include <cmath>

#include "core/joint_space.h"
#include "core/mh_betweenness.h"
#include "core/theory.h"
#include "exact/brandes.h"
#include "graph/generators.h"

namespace mhbc {
namespace {

/// End-to-end validation of Theorem 1 in its intended regime: pick a
/// balanced-separator target (mu ~ constant), compute T from Eq. 14, run
/// many independent chains of length T, and check the empirical failure
/// rate P[|est - BC| > eps] stays below delta.
TEST(BoundsIntegrationTest, Eq14BudgetAchievesEpsDeltaOnSeparator) {
  const CsrGraph g = MakeBarbell(6, 1);
  const VertexId bridge = 6;
  const double exact = ExactBetweennessSingle(g, bridge);
  const auto profile = DependencyProfile(g, bridge);
  const double mu = MuFromProfile(profile);
  ASSERT_LE(mu, 2.5);  // Theorem 2 regime

  const double eps = 0.05;
  const double delta = 0.2;
  const std::uint64_t budget = SampleBound(mu, eps, delta);

  int failures = 0;
  constexpr int kChains = 40;
  for (int c = 0; c < kChains; ++c) {
    MhOptions options;
    options.seed = 1000 + static_cast<std::uint64_t>(c);
    MhBetweennessSampler sampler(g, options);
    const double estimate = sampler.Estimate(bridge, budget);
    if (std::fabs(estimate - exact) > eps) ++failures;
  }
  EXPECT_LE(static_cast<double>(failures) / kChains, delta);
}

/// The same protocol on a *skewed* target must expose the estimator's bias:
/// the chain converges to ChainLimitEstimate, so with a tight eps the
/// failure rate against the true BC blows past delta. This is the
/// reproduction's negative result (bench_paper's E4 and E15 tables in
/// BENCH_paper.json).
TEST(BoundsIntegrationTest, SkewedTargetConvergesToChainLimitNotTruth) {
  const CsrGraph g = MakePath(10);
  const VertexId r = 2;
  const double exact = ExactBetweennessSingle(g, r);
  const auto profile = DependencyProfile(g, r);
  const double limit = ChainLimitEstimate(profile);
  ASSERT_GT(limit - exact, 0.02);  // visible asymptotic gap

  MhOptions options;
  options.seed = 4242;
  MhBetweennessSampler sampler(g, options);
  const double estimate = sampler.Estimate(r, 50'000);
  // Estimate lands near the chain limit, far from the exact value.
  EXPECT_LT(std::fabs(estimate - limit), 0.25 * (limit - exact));
  EXPECT_GT(std::fabs(estimate - exact), 0.5 * (limit - exact));
}

/// Eq. 27 analogue for the joint sampler: the per-target sample count
/// needed for the relative score is governed by mu(rj); verify the
/// eps-accuracy of the relative estimate at the Eq. 27 budget in the
/// separator regime.
TEST(BoundsIntegrationTest, Eq27BudgetForRelativeScores) {
  const CsrGraph g = MakeBarbell(5, 3);
  const std::vector<VertexId> targets{5, 7};  // two bridge vertices
  const auto profile_j = DependencyProfile(g, targets[1]);
  const double mu_j = MuFromProfile(profile_j);
  const double eps = 0.08, delta = 0.2;
  const std::uint64_t m_j = SampleBound(mu_j, eps, delta);
  // The chain splits samples across |R| targets; budget 2x the per-target
  // requirement plus slack.
  const std::uint64_t iterations = 3 * m_j;

  const auto profile_i = DependencyProfile(g, targets[0]);
  const double expected = ChainLimitRelative(profile_i, profile_j);

  int failures = 0;
  constexpr int kChains = 25;
  for (int c = 0; c < kChains; ++c) {
    JointOptions options;
    options.seed = 2000 + static_cast<std::uint64_t>(c);
    JointSpaceSampler sampler(g, targets, options);
    const JointResult result = sampler.Run(iterations);
    ASSERT_GE(result.samples_per_target[1], m_j / 2);
    if (std::fabs(result.relative[1][0] - expected) > eps) ++failures;
  }
  EXPECT_LE(static_cast<double>(failures) / kChains, delta);
}

TEST(BoundsIntegrationTest, TailBoundConservativeEmpirically) {
  // At a fixed T the empirical failure rate should not exceed the Eq. 12
  // bound (the bound may be loose, never anti-conservative) in the
  // separator regime where the bias is negligible.
  const CsrGraph g = MakeBarbell(5, 1);
  const VertexId bridge = 5;
  const double exact = ExactBetweennessSingle(g, bridge);
  const double mu = MuFromProfile(DependencyProfile(g, bridge));
  const double eps = 0.06;
  const std::uint64_t t = 2'000;
  const double bound = TailBound(mu, eps, t);

  int failures = 0;
  constexpr int kChains = 30;
  for (int c = 0; c < kChains; ++c) {
    MhOptions options;
    options.seed = 3000 + static_cast<std::uint64_t>(c);
    MhBetweennessSampler sampler(g, options);
    if (std::fabs(sampler.Estimate(bridge, t) - exact) > eps) ++failures;
  }
  EXPECT_LE(static_cast<double>(failures) / kChains, bound + 0.05);
}

}  // namespace
}  // namespace mhbc
