#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "centrality/engine.h"
#include "datasets/registry.h"
#include "exact/brandes.h"
#include "graph/generators.h"
#include "graph/graph_io.h"

namespace mhbc {
namespace {

// Full-pipeline integration: generate -> serialize -> parse -> estimate,
// exercising the exact path a downstream user of the SNAP loader takes.

TEST(EndToEndTest, GenerateWriteLoadEstimateUnweighted) {
  const CsrGraph original = MakeConnectedCaveman(5, 10);
  std::ostringstream buffer;
  WriteEdgeList(original, buffer);
  std::istringstream input(buffer.str());
  const auto loaded = ParseEdgeList(input, {});
  ASSERT_TRUE(loaded.ok());
  // The writer emits vertices in dense id order, so ids survive round-trip
  // and per-vertex scores must match exactly.
  const VertexId gateway = 9;
  const double before = ExactBetweennessSingle(original, gateway);
  const double after = ExactBetweennessSingle(loaded.value(), gateway);
  EXPECT_NEAR(before, after, 1e-12);

  EstimateRequest request;
  request.kind = EstimatorKind::kMhRaoBlackwell;
  request.samples = 3'000;
  request.seed = 5;
  const auto estimate = BetweennessEngine(loaded.value()).Estimate(gateway, request);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate.value().value, after, 0.1 * after);
}

TEST(EndToEndTest, GenerateWriteLoadEstimateWeighted) {
  const CsrGraph original =
      AssignUniformWeights(MakeGrid(10, 10), 0.5, 2.0, 0xE2E);
  std::ostringstream buffer;
  WriteEdgeList(original, buffer);
  std::istringstream input(buffer.str());
  EdgeListOptions load_options;
  load_options.allow_weights = true;
  const auto loaded = ParseEdgeList(input, load_options);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().weighted());
  const VertexId center = 5 * 10 + 5;
  // Text round-trip quantizes weights through decimal printing; exact
  // scores may shift at tie boundaries, so compare with a tolerance.
  const double before = ExactBetweennessSingle(original, center);
  const double after = ExactBetweennessSingle(loaded.value(), center);
  EXPECT_NEAR(before, after, 0.05 * before + 1e-6);
}

TEST(EndToEndTest, RegistryDatasetThroughJointRanking) {
  const CsrGraph graph = std::move(MakeDataset("caveman-36")).value();
  // The four gateway vertices of the caveman ring.
  const std::vector<VertexId> gateways{8, 17, 26, 35};
  const auto order = BetweennessEngine(graph).RankTargets(gateways, 20'000, 0xE2E);
  ASSERT_TRUE(order.ok());
  // All four gateways are symmetric: any order is acceptable, but the call
  // must produce a complete permutation.
  std::vector<bool> seen(4, false);
  for (std::size_t idx : order.value()) {
    ASSERT_LT(idx, 4u);
    seen[idx] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(EndToEndTest, AdaptiveOnLoadedGraphMatchesChainLimit) {
  const CsrGraph graph = std::move(MakeDataset("caveman-36")).value();
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.budget = BudgetKind::kStandardError;
  request.target_std_error = 0.02 / request.z;  // half-width 0.02
  request.seed = 0xADA;
  const auto result = BetweennessEngine(graph).Estimate(/*gateway=*/8, request);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().converged);
  EXPECT_GT(result.value().value, 0.0);
  EXPECT_LT(result.value().value, 1.0);
}

TEST(EndToEndTest, TopKAgreesWithExactOnRegistryDataset) {
  const CsrGraph graph = std::move(MakeDataset("caveman-36")).value();
  const auto top = BetweennessEngine(graph).TopK(4, 0.03, 0.1, 0x70F);
  ASSERT_TRUE(top.ok());
  const auto exact = ExactBetweenness(graph);
  // The caveman-36 top-4 are its four gateways; verify each returned
  // vertex is within 2 eps of its exact score and scores are sorted.
  double previous = 1.0;
  for (const TopKEntry& entry : top.value()) {
    EXPECT_NEAR(entry.estimate, exact[entry.vertex], 0.06);
    EXPECT_LE(entry.estimate, previous + 1e-12);
    previous = entry.estimate;
  }
}

}  // namespace
}  // namespace mhbc
