#include "core/variance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/uniform_sampler.h"
#include "exact/brandes.h"
#include "graph/generators.h"
#include "sp/bfs_spd.h"
#include "util/stats.h"

namespace mhbc {
namespace {

TEST(VarianceTest, OptimalIsZero) {
  const CsrGraph g = MakeBarabasiAlbert(40, 2, 3);
  for (VertexId r = 0; r < 8; ++r) {
    const auto profile = DependencyProfile(g, r);
    double total = 0.0;
    for (double d : profile) total += d;
    if (total == 0.0) continue;
    EXPECT_NEAR(OptimalSamplerVariance(profile), 0.0, 1e-15) << "r=" << r;
  }
}

TEST(VarianceTest, UniformHandComputed) {
  // Profile [2, 0, 2] (n=3): BC = 4/6. X = delta/(p*6) with p = 1/3:
  // X in {1, 0, 1}; E[X^2] = 2/3; Var = 2/3 - 4/9 = 2/9.
  const std::vector<double> profile{2.0, 0.0, 2.0};
  EXPECT_NEAR(UniformSamplerVariance(profile), 2.0 / 9.0, 1e-12);
}

TEST(VarianceTest, UniformZeroOnFlatProfile) {
  // All sources identical: every sample returns BC exactly.
  const std::vector<double> flat{3.0, 3.0, 3.0, 3.0};
  EXPECT_NEAR(UniformSamplerVariance(flat), 0.0, 1e-15);
}

TEST(VarianceTest, OptimalNeverWorseThanUniformOrDistance) {
  const CsrGraph g = MakeConnectedCaveman(4, 8);
  BfsSpd bfs(g);
  for (VertexId r : {VertexId{7}, VertexId{15}, VertexId{0}}) {
    const auto profile = DependencyProfile(g, r);
    bfs.Run(r);
    const auto& dist = bfs.dag().dist;
    std::vector<double> weights(profile.size(), 0.0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (v != r) weights[v] = static_cast<double>(dist[v]);
    }
    const double uniform = UniformSamplerVariance(profile);
    const double distance = WeightedSamplerVariance(profile, weights);
    const double optimal = OptimalSamplerVariance(profile);
    EXPECT_LE(optimal, uniform + 1e-15);
    EXPECT_LE(optimal, distance + 1e-15);
  }
}

TEST(VarianceTest, PredictsEmpiricalUniformSamplerSpread) {
  // The analytic per-sample variance must match the observed variance of
  // k-sample uniform estimates: Var_k = Var_1 / k.
  const CsrGraph g = MakeBarbell(5, 1);
  const VertexId bridge = 5;
  const auto profile = DependencyProfile(g, bridge);
  const double per_sample = UniformSamplerVariance(profile);
  constexpr std::uint64_t kSamples = 32;
  constexpr int kReps = 600;
  UniformSourceSampler sampler(g, 99);
  RunningStats observed;
  for (int rep = 0; rep < kReps; ++rep) {
    observed.Add(sampler.Estimate(bridge, kSamples));
  }
  const double predicted = per_sample / static_cast<double>(kSamples);
  EXPECT_NEAR(observed.variance(), predicted, 0.25 * predicted);
}

TEST(VarianceTest, ChainStationaryVarianceFlatSupport) {
  // pi-weighted variance of f: zero when delta is constant on the support
  // (pi never visits zero-delta states).
  const std::vector<double> profile{4.0, 4.0, 0.0, 4.0};
  EXPECT_NEAR(ChainStationaryVariance(profile), 0.0, 1e-15);
}

TEST(VarianceTest, ChainStationaryVarianceHandComputed) {
  // Profile [1, 3] (n=2): pi = [1/4, 3/4], f = delta/(n-1) = [1, 3].
  // E[f] = 1/4 + 9/4 = 2.5; E[f^2] = 1/4 + 27/4 = 7; Var = 0.75.
  const std::vector<double> profile{1.0, 3.0};
  EXPECT_NEAR(ChainStationaryVariance(profile), 0.75, 1e-12);
}

TEST(VarianceTest, WeightsAlignedWithProfileBeatUniform) {
  // Weighting proportional to the dependency profile IS the optimal
  // distribution: variance collapses to zero, strictly beating uniform on
  // any non-flat profile. Misaligned (inverted) weights do worse than
  // uniform — the mechanism behind [13]'s sampler design.
  const std::vector<double> profile{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> aligned = profile;
  const std::vector<double> inverted{4.0, 3.0, 2.0, 1.0};
  const double uniform = UniformSamplerVariance(profile);
  EXPECT_NEAR(WeightedSamplerVariance(profile, aligned), 0.0, 1e-15);
  EXPECT_GT(uniform, 0.0);
  EXPECT_GT(WeightedSamplerVariance(profile, inverted), uniform);
}

TEST(VarianceTest, FlatSupportClosedForm) {
  // Every source has the same dependency on a path's center (the 10
  // cross-side targets), zero only at the center itself. For such
  // flat-on-support profiles the uniform sampler's variance has the closed
  // form BC^2 * (n - k)/k with k = |support|.
  const CsrGraph g = MakePath(21);
  const auto profile = DependencyProfile(g, 10);
  const double bc = ExactBetweennessSingle(g, 10);
  const double n = 21.0, k = 20.0;
  EXPECT_NEAR(UniformSamplerVariance(profile), bc * bc * (n - k) / k, 1e-12);
}

}  // namespace
}  // namespace mhbc
