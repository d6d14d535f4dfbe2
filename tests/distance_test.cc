// Distances as the samplers read them: BfsSpd::dag().dist (hop counts) and
// DeltaSpd::dag().wdist (weighted), with the tests/support Dijkstra engine
// as the weighted reference. The distance-proportional sampler builds its
// table from exactly these arrays.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"
#include "support/dijkstra_spd.h"

namespace mhbc {
namespace {

TEST(BfsDistanceTest, Path) {
  const CsrGraph g = MakePath(5);
  BfsSpd bfs(g);
  bfs.Run(2);
  const auto& dist = bfs.dag().dist;
  EXPECT_EQ(dist[0], 2u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 0u);
  EXPECT_EQ(dist[4], 2u);
}

TEST(BfsDistanceTest, UnreachableMarked) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  const CsrGraph g = std::move(b.Build()).value();
  BfsSpd bfs(g);
  bfs.Run(0);
  const auto& dist = bfs.dag().dist;
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachedDistance);
  EXPECT_EQ(dist[3], kUnreachedDistance);
}

TEST(DeltaDistanceTest, WeightedPathMatchesDijkstra) {
  GraphBuilder b(3);
  b.AddWeightedEdge(0, 1, 2.5);
  b.AddWeightedEdge(1, 2, 0.5);
  const CsrGraph g = std::move(b.Build()).value();
  DeltaSpd delta(g);
  delta.Run(0);
  const auto& dist = delta.dag().wdist;
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 2.5);
  EXPECT_DOUBLE_EQ(dist[2], 3.0);
  DijkstraSpd dijkstra(g);
  dijkstra.Run(0);
  EXPECT_EQ(dist, dijkstra.dag().wdist);
}

// Unit weights build an unweighted graph, so the constant-weight checks
// use weight 2: weighted distances are then exactly twice the hop counts.
TEST(DeltaDistanceTest, ConstantWeightsScaleBfsHops) {
  const CsrGraph g = MakeCycle(6);
  const CsrGraph wg = AssignUniformWeights(g, 2.0, 2.0, 2);
  ASSERT_TRUE(wg.weighted());
  BfsSpd bfs(g);
  DeltaSpd delta(wg);
  bfs.Run(0);
  delta.Run(0);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_DOUBLE_EQ(delta.dag().wdist[v],
                     2.0 * static_cast<double>(bfs.dag().dist[v]));
  }
}

TEST(DeltaDistanceTest, UnreachableNegative) {
  GraphBuilder b(3);
  b.AddWeightedEdge(0, 1, 1.5);
  const CsrGraph g = std::move(b.Build()).value();
  DeltaSpd delta(g);
  delta.Run(0);
  EXPECT_LT(delta.dag().wdist[2], 0.0);
}

TEST(DistanceAgreementTest, ConstantWeightsEqualBfsOnRandomGraph) {
  const CsrGraph g = MakeErdosRenyiGnm(70, 180, 3);
  const CsrGraph constant = AssignUniformWeights(g, 2.0, 2.0, 4);
  const CsrGraph random = AssignUniformWeights(g, 1.0, 10.0, 5);
  BfsSpd bfs(g);
  DeltaSpd delta_constant(constant);
  DeltaSpd delta_random(random);
  DijkstraSpd dijkstra_random(random);
  for (VertexId s = 0; s < 5; ++s) {
    bfs.Run(s);
    delta_constant.Run(s);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const std::uint32_t hops = bfs.dag().dist[v];
      const double wdist = delta_constant.dag().wdist[v];
      if (hops == kUnreachedDistance) {
        EXPECT_LT(wdist, 0.0);
      } else {
        EXPECT_DOUBLE_EQ(wdist, 2.0 * static_cast<double>(hops));
      }
    }
    // Random weights: the delta-stepping distances equal the heap-order
    // reference's.
    delta_random.Run(s);
    dijkstra_random.Run(s);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(delta_random.dag().wdist[v],
                       dijkstra_random.dag().wdist[v]);
    }
  }
}

}  // namespace
}  // namespace mhbc
