#include "baselines/rk_sampler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "exact/brandes.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/stats.h"

namespace mhbc {
namespace {

TEST(RkSamplerTest, ConvergesOnStarCenter) {
  const CsrGraph g = MakeStar(12);
  RkSampler sampler(g, 3);
  const double exact = ExactBetweennessSingle(g, 0);
  EXPECT_NEAR(sampler.Estimate(0, 30'000), exact, 0.02);
}

TEST(RkSamplerTest, LeafNeverCredited) {
  const CsrGraph g = MakeStar(8);
  RkSampler sampler(g, 5);
  EXPECT_DOUBLE_EQ(sampler.Estimate(3, 2'000), 0.0);
}

TEST(RkSamplerTest, EstimateAllTracksExactVector) {
  const CsrGraph g = MakeBarbell(4, 2);
  RkSampler sampler(g, 7);
  const auto estimates = sampler.EstimateAll(40'000);
  const auto exact = ExactBetweenness(g);
  EXPECT_LT(MaxAbsoluteError(estimates, exact), 0.03);
}

TEST(RkSamplerTest, TiedPathsSplitCredit) {
  // C4: vertex 1 and 3 each carry half the (0,2) traffic.
  const CsrGraph g = MakeCycle(4);
  RkSampler sampler(g, 9);
  const auto estimates = sampler.EstimateAll(60'000);
  const auto exact = ExactBetweenness(g);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_NEAR(estimates[v], exact[v], 0.02) << "vertex " << v;
  }
}

TEST(RkSamplerTest, DeterministicForSeed) {
  const CsrGraph g = MakeGrid(4, 4);
  RkSampler a(g, 31);
  RkSampler b(g, 31);
  EXPECT_DOUBLE_EQ(a.Estimate(5, 500), b.Estimate(5, 500));
}

TEST(RkSamplerTest, PassAccounting) {
  const CsrGraph g = MakeCycle(9);
  RkSampler sampler(g, 33);
  sampler.Estimate(0, 40);
  EXPECT_EQ(sampler.num_passes(), 40u);
}

TEST(RkSampleBoundTest, MonotoneInEpsAndDelta) {
  const auto loose = RkSampler::SampleBound(10, 0.1, 0.1);
  const auto tighter_eps = RkSampler::SampleBound(10, 0.05, 0.1);
  const auto tighter_delta = RkSampler::SampleBound(10, 0.1, 0.01);
  EXPECT_GT(tighter_eps, loose);
  EXPECT_GT(tighter_delta, loose);
}

TEST(RkSampleBoundTest, KnownValue) {
  // vd=6: floor(log2(4)) + 1 = 3; bound = 0.5/eps^2 (3 + ln(1/delta)).
  const double expected = 0.5 / (0.1 * 0.1) * (3.0 + std::log(10.0));
  EXPECT_EQ(RkSampler::SampleBound(6, 0.1, 0.1),
            static_cast<std::uint64_t>(std::ceil(expected)));
}

TEST(RkSampleBoundTest, MinimalVertexDiameter) {
  // vd == 2 (single edge graphs) uses VC dimension 1.
  const double expected = 0.5 / (0.2 * 0.2) * (1.0 + std::log(20.0));
  EXPECT_EQ(RkSampler::SampleBound(2, 0.2, 0.05),
            static_cast<std::uint64_t>(std::ceil(expected)));
}

TEST(RkSamplerTest, WeightedConstantMatchesUnweighted) {
  // Constant weight 2: unit weights would build an unweighted graph and
  // backtrack over BFS passes.
  const CsrGraph g = MakeGrid(4, 4);
  const CsrGraph wg = AssignUniformWeights(g, 2.0, 2.0, 51);
  ASSERT_TRUE(wg.weighted());
  RkSampler weighted(wg, 61);
  const auto estimates = weighted.EstimateAll(30'000);
  const auto exact = ExactBetweenness(g);
  EXPECT_LT(MaxAbsoluteError(estimates, exact), 0.03);
}

TEST(RkSamplerTest, WeightedReroutedPathsCredited) {
  // Square 0-1-2-3-0 with cheap edges through 1: all (0,2) traffic goes
  // via 1, never via 3.
  GraphBuilder b(4);
  b.AddWeightedEdge(0, 1, 1.0);
  b.AddWeightedEdge(1, 2, 1.0);
  b.AddWeightedEdge(2, 3, 3.0);
  b.AddWeightedEdge(3, 0, 3.0);
  const CsrGraph g = std::move(b.Build()).value();
  RkSampler sampler(g, 71);
  const auto estimates = sampler.EstimateAll(20'000);
  EXPECT_GT(estimates[1], 0.1);
  EXPECT_DOUBLE_EQ(estimates[3], 0.0);
}

TEST(RkSamplerTest, BoundDeliversAccuracyOnGrid) {
  // End-to-end: draw the bound's sample count, check the error is within
  // eps for a handful of vertices (probabilistic, generous margins).
  const CsrGraph g = MakeGrid(5, 5);
  const double eps = 0.05;
  const std::uint64_t samples = RkSampler::SampleBound(9 + 1, eps, 0.1);
  RkSampler sampler(g, 41);
  const auto estimates = sampler.EstimateAll(samples);
  const auto exact = ExactBetweenness(g);
  EXPECT_LE(MaxAbsoluteError(estimates, exact), eps * 2);
}

}  // namespace
}  // namespace mhbc
