#include "exact/dependency_oracle.h"

#include <gtest/gtest.h>

#include "exact/brandes.h"
#include "graph/generators.h"

namespace mhbc {
namespace {

TEST(DependencyOracleTest, MatchesProfileColumn) {
  const CsrGraph g = MakeBarabasiAlbert(40, 2, 17);
  DependencyOracle oracle(g);
  const VertexId r = 5;
  const auto profile = DependencyProfile(g, r);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(oracle.Dependency(v, r), profile[v], 1e-9) << "source " << v;
  }
}

TEST(DependencyOracleTest, CountsPasses) {
  const CsrGraph g = MakeCycle(10);
  DependencyOracle oracle(g);
  EXPECT_EQ(oracle.num_passes(), 0u);
  oracle.Dependency(0, 5);
  oracle.Dependency(1, 5);
  EXPECT_EQ(oracle.num_passes(), 2u);
}

TEST(DependencyOracleTest, RunPassCountsAndBypassesTheMemo) {
  const CsrGraph g = MakePath(5);
  DependencyOracle oracle(g);
  oracle.set_cache_capacity(5);
  const ShortestPathDag& dag = oracle.RunPass(0);
  EXPECT_EQ(dag.source, 0u);
  EXPECT_EQ(dag.dist[4], 4u);
  EXPECT_EQ(oracle.num_passes(), 1u);
  EXPECT_EQ(oracle.cached_entries(), 0u);
  // A memo hit still costs no pass; RunPass always does.
  oracle.Dependencies(0);
  oracle.Dependencies(0);
  oracle.RunPass(0);
  EXPECT_EQ(oracle.num_passes(), 3u);
  EXPECT_EQ(oracle.cache_hits(), 1u);
  // From source 0, delta on vertex 2 is 2 (targets 3 and 4), and a
  // RunPass in between leaves the memoized vector intact.
  EXPECT_DOUBLE_EQ(oracle.Dependency(0, 2), 2.0);
}

TEST(DependencyOracleTest, WeightedGraphUsesDeltaSteppingKernel) {
  // Constant weight 2 (unit weights would build an unweighted graph):
  // every shortest path is the hop-shortest one, so the dependencies match.
  const CsrGraph wg = AssignUniformWeights(MakeGrid(4, 4), 2.0, 2.0, 3);
  const CsrGraph g = MakeGrid(4, 4);
  DependencyOracle weighted(wg);
  DependencyOracle unweighted(g);
  EXPECT_TRUE(weighted.RunPass(0).weighted);
  EXPECT_FALSE(unweighted.RunPass(0).weighted);
  for (VertexId v = 0; v < g.num_vertices(); v += 3) {
    const auto& dw = weighted.Dependencies(v);
    const auto& du = unweighted.Dependencies(v);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      EXPECT_NEAR(dw[u], du[u], 1e-9);
    }
  }
}

TEST(DependencyOracleTest, DependenciesVectorReusedAcrossCalls) {
  const CsrGraph g = MakeStar(6);
  DependencyOracle oracle(g);
  const auto& first = oracle.Dependencies(1);
  EXPECT_DOUBLE_EQ(first[0], 4.0);
  const auto& second = oracle.Dependencies(2);
  // Same underlying buffer, refreshed content.
  EXPECT_DOUBLE_EQ(second[0], 4.0);
  EXPECT_DOUBLE_EQ(second[1], 0.0);
}

}  // namespace
}  // namespace mhbc
