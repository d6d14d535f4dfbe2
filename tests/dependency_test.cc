#include "sp/dependency.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "support/dijkstra_spd.h"
#include "support/pair_dependencies.h"
#include "util/rng.h"

namespace mhbc {
namespace {

TEST(DependencyTest, PathSourceEndpoint) {
  // Path 0-1-2-3-4, source 0: delta_0(v) = #targets beyond v = 4-v... for
  // v=1: targets {2,3,4} -> 3; v=2: 2; v=3: 1; endpoints 0.
  const CsrGraph g = MakePath(5);
  BfsSpd bfs(g);
  bfs.Run(0);
  DependencyAccumulator acc(g);
  const auto& delta = acc.Accumulate(bfs);
  EXPECT_DOUBLE_EQ(delta[0], 0.0);
  EXPECT_DOUBLE_EQ(delta[1], 3.0);
  EXPECT_DOUBLE_EQ(delta[2], 2.0);
  EXPECT_DOUBLE_EQ(delta[3], 1.0);
  EXPECT_DOUBLE_EQ(delta[4], 0.0);
}

TEST(DependencyTest, StarCenterFromLeaf) {
  // Star with center 0, leaves 1..5; from leaf 1 every other leaf routes
  // through the center: delta_1(0) = 4.
  const CsrGraph g = MakeStar(6);
  BfsSpd bfs(g);
  bfs.Run(1);
  DependencyAccumulator acc(g);
  const auto& delta = acc.Accumulate(bfs);
  EXPECT_DOUBLE_EQ(delta[0], 4.0);
  for (VertexId v = 1; v < 6; ++v) EXPECT_DOUBLE_EQ(delta[v], 0.0);
}

TEST(DependencyTest, EvenCycleSplitDependency) {
  // C4 from 0: target 2 reachable via 1 or 3 (sigma=2), so delta_0(1) =
  // delta_0(3) = 1/2.
  const CsrGraph g = MakeCycle(4);
  BfsSpd bfs(g);
  bfs.Run(0);
  DependencyAccumulator acc(g);
  const auto& delta = acc.Accumulate(bfs);
  EXPECT_DOUBLE_EQ(delta[1], 0.5);
  EXPECT_DOUBLE_EQ(delta[3], 0.5);
  EXPECT_DOUBLE_EQ(delta[2], 0.0);
}

TEST(DependencyTest, RecursionMatchesPairDependencySum) {
  // The Brandes recursion (Eq. 4) must equal the explicit sum over targets
  // of pair dependencies (Eq. 2).
  Rng rng(4242);
  for (int trial = 0; trial < 4; ++trial) {
    const CsrGraph g = MakeErdosRenyiGnm(30, 60, 100 + trial);
    const VertexId s = rng.NextVertex(g.num_vertices());
    BfsSpd bfs(g);
    bfs.Run(s);
    DependencyAccumulator acc(g);
    const std::vector<double> delta = acc.Accumulate(bfs);

    std::vector<double> explicit_sum(g.num_vertices(), 0.0);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (t == s) continue;
      const std::vector<double> pair = PairDependencies(g, s, t);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        explicit_sum[v] += pair[v];
      }
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_NEAR(delta[v], explicit_sum[v], 1e-9)
          << "seed " << trial << " vertex " << v;
    }
  }
}

TEST(DependencyTest, WeightedMatchesUnweightedOnUnitWeights) {
  const CsrGraph g = MakeGrid(4, 5);
  const CsrGraph wg = AssignUniformWeights(g, 1.0, 1.0, 7);
  BfsSpd bfs(g);
  DijkstraSpd dijkstra(wg);
  DependencyAccumulator acc_bfs(g);
  DependencyAccumulator acc_dij(wg);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    bfs.Run(s);
    dijkstra.Run(s);
    const auto& d1 = acc_bfs.Accumulate(bfs);
    const auto& d2 = acc_dij.Accumulate(dijkstra.dag());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_NEAR(d1[v], d2[v], 1e-9);
    }
  }
}

TEST(DependencyTest, SourceDependencyZero) {
  const CsrGraph g = MakeWheel(8);
  BfsSpd bfs(g);
  DependencyAccumulator acc(g);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    bfs.Run(s);
    EXPECT_DOUBLE_EQ(acc.Accumulate(bfs)[s], 0.0);
  }
}

TEST(DependencyTest, TotalDependencyIdentity) {
  // sum_v delta_s(v) = sum_t (d(s,t) - 1) over reachable t != s: every
  // shortest path to t has d-1 interior vertices.
  const CsrGraph g = MakeBarabasiAlbert(80, 2, 9);
  BfsSpd bfs(g);
  DependencyAccumulator acc(g);
  for (VertexId s = 0; s < 10; ++s) {
    bfs.Run(s);
    const auto& delta = acc.Accumulate(bfs);
    double delta_total = 0.0;
    for (double d : delta) delta_total += d;
    double expected = 0.0;
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (t == s) continue;
      expected += static_cast<double>(bfs.dag().dist[t]) - 1.0;
    }
    EXPECT_NEAR(delta_total, expected, 1e-9);
  }
}

TEST(PairDependencyTest, PathInteriorOnes) {
  const CsrGraph g = MakePath(5);
  const std::vector<double> dep = PairDependencies(g, 0, 4);
  EXPECT_DOUBLE_EQ(dep[0], 0.0);
  EXPECT_DOUBLE_EQ(dep[1], 1.0);
  EXPECT_DOUBLE_EQ(dep[2], 1.0);
  EXPECT_DOUBLE_EQ(dep[3], 1.0);
  EXPECT_DOUBLE_EQ(dep[4], 0.0);
}

TEST(PairDependencyTest, SameVertexAllZero) {
  const CsrGraph g = MakePath(4);
  const std::vector<double> dep = PairDependencies(g, 2, 2);
  for (double d : dep) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(CountPathsThroughTest, GridCorner) {
  const CsrGraph g = MakeGrid(3, 3);
  // Paths 0 -> 8 (C(4,2) = 6 total); through center 4: C(2,1)*C(2,1) = 4.
  EXPECT_EQ(CountPathsThrough(g, 0, 8, 4), 4u);
  // Through corner-adjacent 1: C(1,0)*... paths 0->1 (1) times 1->8 (3).
  EXPECT_EQ(CountPathsThrough(g, 0, 8, 1), 3u);
}

TEST(CountPathsThroughTest, OffPathVertexZero) {
  const CsrGraph g = MakePath(5);
  EXPECT_EQ(CountPathsThrough(g, 0, 2, 4), 0u);
}

}  // namespace
}  // namespace mhbc
