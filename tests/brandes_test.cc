#include "exact/brandes.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace mhbc {
namespace {

/// Closed-form raw (ordered-pair) betweenness of path vertex i in P_n.
double PathRaw(VertexId i, VertexId n) {
  return 2.0 * static_cast<double>(i) * static_cast<double>(n - 1 - i);
}

TEST(BrandesTest, PathClosedForm) {
  constexpr VertexId kN = 7;
  const auto raw = ExactBetweenness(MakePath(kN), Normalization::kNone);
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_DOUBLE_EQ(raw[v], PathRaw(v, kN)) << "vertex " << v;
  }
}

TEST(BrandesTest, StarClosedForm) {
  constexpr VertexId kN = 9;
  const auto raw = ExactBetweenness(MakeStar(kN), Normalization::kNone);
  EXPECT_DOUBLE_EQ(raw[0], static_cast<double>((kN - 1) * (kN - 2)));
  for (VertexId v = 1; v < kN; ++v) EXPECT_DOUBLE_EQ(raw[v], 0.0);
}

TEST(BrandesTest, CompleteAllZero) {
  const auto raw = ExactBetweenness(MakeComplete(6), Normalization::kNone);
  for (double s : raw) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(BrandesTest, OddCycleClosedForm) {
  // Odd cycle C_n: raw per vertex = (n-1)(n-3)/4.
  for (VertexId n : {5u, 7u, 9u, 11u}) {
    const auto raw = ExactBetweenness(MakeCycle(n), Normalization::kNone);
    const double expected =
        static_cast<double>((n - 1) * (n - 3)) / 4.0;
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_DOUBLE_EQ(raw[v], expected) << "n=" << n << " v=" << v;
    }
  }
}

TEST(BrandesTest, EvenCycleClosedForm) {
  // Even cycle C_n: raw per vertex = (n-2)^2 / 4.
  for (VertexId n : {4u, 6u, 8u, 10u}) {
    const auto raw = ExactBetweenness(MakeCycle(n), Normalization::kNone);
    const double expected = static_cast<double>((n - 2) * (n - 2)) / 4.0;
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_DOUBLE_EQ(raw[v], expected) << "n=" << n << " v=" << v;
    }
  }
}

TEST(BrandesTest, CompleteBipartiteClosedForm) {
  // K_{a,b}: raw of an A-side vertex is b(b-1)/a.
  constexpr VertexId kA = 3, kB = 4;
  const auto raw =
      ExactBetweenness(MakeCompleteBipartite(kA, kB), Normalization::kNone);
  for (VertexId v = 0; v < kA; ++v) {
    EXPECT_DOUBLE_EQ(raw[v], static_cast<double>(kB * (kB - 1)) / kA);
  }
  for (VertexId v = kA; v < kA + kB; ++v) {
    EXPECT_DOUBLE_EQ(raw[v], static_cast<double>(kA * (kA - 1)) / kB);
  }
}

TEST(BrandesTest, BarbellBridgeClosedForm) {
  // Barbell(k, 1): the bridge vertex carries all k x k cross pairs.
  constexpr VertexId kClique = 5;
  const CsrGraph g = MakeBarbell(kClique, 1);
  const auto raw = ExactBetweenness(g, Normalization::kNone);
  const VertexId bridge = kClique;  // single bridge vertex id
  EXPECT_DOUBLE_EQ(raw[bridge],
                   2.0 * static_cast<double>(kClique) * kClique);
}

TEST(BrandesTest, PaperNormalizationDividesByNPairs) {
  constexpr VertexId kN = 10;
  const auto raw = ExactBetweenness(MakeStar(kN), Normalization::kNone);
  const auto paper = ExactBetweenness(MakeStar(kN), Normalization::kPaper);
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_DOUBLE_EQ(paper[v], raw[v] / (kN * (kN - 1.0)));
  }
  // Star center approaches 1 as n grows: (n-2)/n here.
  EXPECT_DOUBLE_EQ(paper[0], (kN - 2.0) / kN);
}

TEST(BrandesTest, UnorderedPairsNormalizationHalvesRaw) {
  const auto raw = ExactBetweenness(MakePath(6), Normalization::kNone);
  const auto classic =
      ExactBetweenness(MakePath(6), Normalization::kUnorderedPairs);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_DOUBLE_EQ(classic[v], raw[v] / 2.0);
  }
}

TEST(BrandesTest, DisconnectedComponentsIndependent) {
  // Two disjoint paths: scores match the per-component closed forms.
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  const CsrGraph g = std::move(b.Build()).value();
  const auto raw = ExactBetweenness(g, Normalization::kNone);
  EXPECT_DOUBLE_EQ(raw[1], 2.0);
  EXPECT_DOUBLE_EQ(raw[4], 2.0);
  EXPECT_DOUBLE_EQ(raw[0], 0.0);
  EXPECT_DOUBLE_EQ(raw[5], 0.0);
}

TEST(BrandesTest, SingleMatchesFull) {
  const CsrGraph g = MakeBarabasiAlbert(60, 2, 21);
  const auto full = ExactBetweenness(g);
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    EXPECT_NEAR(ExactBetweennessSingle(g, v), full[v], 1e-12);
  }
}

TEST(BrandesTest, WeightedConstantMatchesUnweighted) {
  // Constant weight 2: unit weights would build an unweighted graph and
  // compare the BFS kernel with itself.
  const CsrGraph g = MakeGrid(4, 4);
  const CsrGraph wg = AssignUniformWeights(g, 2.0, 2.0, 5);
  ASSERT_TRUE(wg.weighted());
  const auto unweighted = ExactBetweenness(g);
  const auto weighted = ExactBetweenness(wg);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(unweighted[v], weighted[v], 1e-9);
  }
}

TEST(BrandesTest, WeightsRerouteBetweenness) {
  // Square 0-1-2-3-0. Make edges around vertex 1 cheap so pairs (0,2)
  // route through 1, not 3.
  GraphBuilder b(4);
  b.AddWeightedEdge(0, 1, 1.0);
  b.AddWeightedEdge(1, 2, 1.0);
  b.AddWeightedEdge(2, 3, 3.0);
  b.AddWeightedEdge(3, 0, 3.0);
  const CsrGraph g = std::move(b.Build()).value();
  const auto raw = ExactBetweenness(g, Normalization::kNone);
  EXPECT_GT(raw[1], 0.0);
  EXPECT_DOUBLE_EQ(raw[3], 0.0);
}

TEST(DependencyProfileTest, SumsToRawBetweenness) {
  const CsrGraph g = MakeBarabasiAlbert(50, 2, 31);
  const auto raw = ExactBetweenness(g, Normalization::kNone);
  for (VertexId r = 0; r < g.num_vertices(); r += 11) {
    const auto profile = DependencyProfile(g, r);
    double total = 0.0;
    for (double d : profile) total += d;
    EXPECT_NEAR(total, raw[r], 1e-9);
  }
}

TEST(DependencyProfileTest, ProfileEntryIsSourceDependency) {
  const CsrGraph g = MakeWheel(10);
  const auto profile = DependencyProfile(g, 0);
  EXPECT_DOUBLE_EQ(profile[0], 0.0);  // r's own dependency on itself
}

}  // namespace
}  // namespace mhbc
