// Target-scoped BFS passes (BfsSpd::Run with a scope vertex) against full
// passes: the same dist/sigma/order/level_offsets, DAG edges recorded
// exactly among the scope vertex and its descendants, and a scoped sweep whose
// delta_s(r) is bit-identical to the full sweep's — for every source, at
// one and four intra-pass threads.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sp/bfs_spd.h"
#include "sp/dependency.h"
#include "util/rng.h"

namespace mhbc {
namespace {

/// `graph` plus one isolated vertex (id n): a scope vertex no source
/// reaches.
CsrGraph WithIsolatedVertex(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  GraphBuilder builder(n + 1);
  builder.set_directed(graph.directed());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : graph.neighbors(u)) {
      if (graph.directed() || u < v) builder.AddEdge(u, v);
    }
  }
  return std::move(builder.Build()).value();
}

struct Case {
  std::string name;
  CsrGraph graph;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  cases.push_back({"ba", WithIsolatedVertex(MakeBarabasiAlbert(300, 3, 7))});
  cases.push_back({"grid", WithIsolatedVertex(MakeGrid(30, 30))});
  cases.push_back({"caveman", WithIsolatedVertex(MakeConnectedCaveman(6, 8))});
  cases.push_back(
      {"directed", WithIsolatedVertex(MakeRandomDirected(300, 900, 11))});
  return cases;
}

/// Degree-ranked targets shared by every source: hub, median, min-degree
/// (over the connected part), and the isolated vertex.
std::vector<VertexId> FixedTargets(const CsrGraph& graph) {
  const VertexId isolated = graph.num_vertices() - 1;
  std::vector<VertexId> by_degree(isolated);
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&graph](VertexId a, VertexId b) {
                     return graph.degree(a) < graph.degree(b);
                   });
  return {by_degree.back(), by_degree[by_degree.size() / 2], by_degree.front(),
          isolated};
}

/// True for r and its DAG descendants, read off the full pass' parents.
std::vector<bool> Marks(const ShortestPathDag& full, VertexId r) {
  std::vector<bool> marked(full.dist.size(), false);
  marked[r] = true;
  for (VertexId v : full.order) {
    for (VertexId u : full.predecessors(v)) {
      if (marked[u]) marked[v] = true;
    }
  }
  return marked;
}

std::vector<VertexId> Parents(const ShortestPathDag& dag, VertexId v) {
  const auto parents = dag.predecessors(v);
  return {parents.begin(), parents.end()};
}

void ExpectScopedMatchesFull(const CsrGraph& graph, const SpdOptions& options,
                             const std::string& label) {
  BfsSpd full(graph);
  BfsSpd scoped(graph, options);
  DependencyAccumulator full_sweep(graph);
  DependencyAccumulator scoped_sweep(graph);
  const std::vector<VertexId> fixed = FixedTargets(graph);
  Rng rng(0x5c0bed);
  for (VertexId s = 0; s < graph.num_vertices(); ++s) {
    full.Run(s);
    const ShortestPathDag& f = full.dag();
    const std::vector<double>& deltas = full_sweep.Accumulate(f);
    std::vector<VertexId> targets = fixed;
    targets.push_back(rng.NextVertex(graph.num_vertices()));
    targets.push_back(s);
    for (VertexId r : targets) {
      SCOPED_TRACE(label + " source " + std::to_string(s) + " target " +
                   std::to_string(r));
      scoped.Run(s, r);
      const ShortestPathDag& d = scoped.dag();
      ASSERT_EQ(d.dist, f.dist);
      ASSERT_EQ(d.sigma, f.sigma);
      ASSERT_EQ(d.order, f.order);
      ASSERT_EQ(d.level_offsets, f.level_offsets);

      // Each vertex keeps its marked parents, in the full pass' order.
      const std::vector<bool> marked = Marks(f, r);
      std::uint64_t recorded = 0;
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        std::vector<VertexId> expected;
        for (VertexId u : f.predecessors(v)) {
          if (marked[u]) expected.push_back(u);
        }
        ASSERT_EQ(Parents(d, v), expected) << "vertex " << v;
        recorded += expected.size();
      }
      EXPECT_EQ(scoped.last_stats().pred_edges_recorded, recorded);
      EXPECT_LE(recorded, full.last_stats().pred_edges_recorded);
      EXPECT_EQ(scoped.last_stats().edges_examined,
                full.last_stats().edges_examined);

      const double delta = scoped_sweep.Accumulate(d, r)[r];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(delta),
                std::bit_cast<std::uint64_t>(deltas[r]))
          << delta << " vs " << deltas[r];
    }
  }
}

SpdOptions Threads(unsigned threads) {
  SpdOptions options;
  options.num_threads = threads;
  options.parallel_grain = 0;  // every level through the parallel steps
  return options;
}

TEST(ScopedPassTest, SequentialScopedPassMatchesFullPass) {
  for (const Case& c : Cases()) {
    ExpectScopedMatchesFull(c.graph, Threads(1), c.name);
  }
}

TEST(ScopedPassTest, ParallelScopedPassMatchesFullPass) {
  for (const Case& c : Cases()) {
    ExpectScopedMatchesFull(c.graph, Threads(4), c.name);
  }
}

TEST(ScopedPassTest, FullPassRecordsEveryDagEdge) {
  const CsrGraph graph = MakeGrid(12, 9);
  BfsSpd bfs(graph);
  std::uint64_t total = 0;
  for (VertexId s = 0; s < graph.num_vertices(); ++s) {
    bfs.Run(s);
    std::uint64_t edges = 0;
    for (VertexId v : bfs.dag().order) edges += bfs.dag().pred_count[v];
    EXPECT_EQ(bfs.last_stats().pred_edges_recorded, edges);
    total += edges;
  }
  EXPECT_EQ(bfs.total_stats().pred_edges_recorded, total);
}

TEST(ScopedPassTest, UnreachedScopeLeavesNoMarkForTheNextPass) {
  for (const Case& c : Cases()) {
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(c.name + " threads " + std::to_string(threads));
      const VertexId isolated = c.graph.num_vertices() - 1;
      const VertexId hub = FixedTargets(c.graph).front();
      BfsSpd reused(c.graph, Threads(threads));
      reused.Run(0, isolated);
      EXPECT_EQ(reused.last_stats().pred_edges_recorded, 0u);
      for (std::uint32_t count : reused.dag().pred_count) EXPECT_EQ(count, 0u);
      DependencyAccumulator sweep(c.graph);
      EXPECT_EQ(sweep.Accumulate(reused.dag(), isolated)[isolated], 0.0);

      // The next passes, scoped and full, see no trace of the first one.
      BfsSpd fresh(c.graph, Threads(threads));
      for (VertexId scope : {hub, kInvalidVertex}) {
        reused.Run(1, scope);
        fresh.Run(1, scope);
        EXPECT_EQ(reused.dag().pred_count, fresh.dag().pred_count);
        EXPECT_EQ(reused.last_stats().pred_edges_recorded,
                  fresh.last_stats().pred_edges_recorded);
        for (VertexId v = 0; v < c.graph.num_vertices(); ++v) {
          ASSERT_EQ(Parents(reused.dag(), v), Parents(fresh.dag(), v));
        }
      }
    }
  }
}

}  // namespace
}  // namespace mhbc
