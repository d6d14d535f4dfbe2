#include "support/apsp_oracle.h"

#include <gtest/gtest.h>

#include <tuple>

#include "exact/brandes.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sp/bfs_spd.h"
#include "support/dijkstra_spd.h"

namespace mhbc {
namespace {

TEST(ApspOracleTest, PathDistancesAndCounts) {
  const ApspOracle oracle(MakePath(5));
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 4), 4.0);
  EXPECT_DOUBLE_EQ(oracle.PathCount(0, 4), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Distance(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(oracle.PathCount(2, 2), 1.0);
}

TEST(ApspOracleTest, EvenCycleTies) {
  const ApspOracle oracle(MakeCycle(8));
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 4), 4.0);
  EXPECT_DOUBLE_EQ(oracle.PathCount(0, 4), 2.0);
}

TEST(ApspOracleTest, DisconnectedNegativeDistanceZeroCount) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  const CsrGraph g = std::move(b.Build()).value();
  const ApspOracle oracle(g);
  EXPECT_LT(oracle.Distance(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(oracle.PathCount(0, 3), 0.0);
}

TEST(ApspOracleTest, GridBinomialCounts) {
  const ApspOracle oracle(MakeGrid(4, 4));
  EXPECT_DOUBLE_EQ(oracle.PathCount(0, 15), 20.0);  // C(6,3)
}

/// Engine agreement sweep: BFS and Dijkstra engines must match the
/// independent Floyd-Warshall oracle on distances AND multiplicities.
class EngineAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  CsrGraph MakeGraph() const {
    const auto [family, seed] = GetParam();
    switch (family) {
      case 0:
        return MakeErdosRenyiGnm(30, 70, seed);
      case 1:
        return MakeBarabasiAlbert(30, 2, seed);
      case 2:
        return AssignUniformWeights(MakeErdosRenyiGnm(25, 60, seed), 0.5,
                                    2.0, seed + 1);
      default:
        // Integer weights: exact FP ties exercise multiplicity handling.
        return AssignUniformWeights(MakeWattsStrogatz(24, 4, 0.3, seed), 1.0,
                                    1.0, seed);
    }
  }
};

TEST_P(EngineAgreementTest, EnginesMatchOracle) {
  const CsrGraph g = MakeGraph();
  const ApspOracle oracle(g);
  if (!g.weighted()) {
    BfsSpd engine(g);
    for (VertexId s = 0; s < g.num_vertices(); s += 3) {
      engine.Run(s);
      const auto& dag = engine.dag();
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        const double expected = oracle.Distance(s, t);
        if (expected < 0.0) {
          EXPECT_EQ(dag.dist[t], kUnreachedDistance);
          continue;
        }
        EXPECT_EQ(static_cast<double>(dag.dist[t]), expected);
        EXPECT_DOUBLE_EQ(static_cast<double>(dag.sigma[t]),
                         oracle.PathCount(s, t));
      }
    }
  } else {
    DijkstraSpd engine(g);
    for (VertexId s = 0; s < g.num_vertices(); s += 3) {
      engine.Run(s);
      const auto& dag = engine.dag();
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        const double expected = oracle.Distance(s, t);
        if (expected < 0.0) {
          EXPECT_LT(dag.wdist[t], 0.0);
          continue;
        }
        EXPECT_NEAR(dag.wdist[t], expected, 1e-9);
        EXPECT_NEAR(static_cast<double>(dag.sigma[t]),
                    oracle.PathCount(s, t), 1e-6);
      }
    }
  }
}

TEST_P(EngineAgreementTest, OraclePairDependenciesSumToBrandes) {
  const CsrGraph g = MakeGraph();
  const ApspOracle oracle(g);
  const auto exact = ExactBetweenness(g, Normalization::kNone);
  for (VertexId w = 0; w < g.num_vertices(); w += 7) {
    double total = 0.0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (u == v) continue;
        total += oracle.PairDependency(u, v, w);
      }
    }
    EXPECT_NEAR(total, exact[w], 1e-6) << "w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, EngineAgreementTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values<std::uint64_t>(11, 12)));

}  // namespace
}  // namespace mhbc
