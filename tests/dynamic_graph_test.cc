#include "graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "centrality/engine.h"
#include "exact/dependency_memo.h"
#include "exact/dependency_oracle.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace mhbc {
namespace {

// ---------------------------------------------------------------- helpers

/// Reference model of an evolving graph: the edge map is the ground truth
/// DynamicGraph::Csr() and every scratch rebuild are checked against.
struct Model {
  VertexId n = 0;
  bool weighted = false;
  bool directed = false;
  /// Key: the arc (u, v) when directed, the pair with u < v when not.
  std::map<std::pair<VertexId, VertexId>, double> edges;

  static Model FromGraph(const CsrGraph& graph) {
    Model model;
    model.n = graph.num_vertices();
    model.weighted = graph.weighted();
    model.directed = graph.directed();
    for (const CsrGraph::Edge& e : graph.CollectEdges()) {
      model.edges[model.Key(e.u, e.v)] = e.weight;
    }
    return model;
  }

  std::pair<VertexId, VertexId> Key(VertexId u, VertexId v) const {
    if (!directed && u > v) std::swap(u, v);
    return {u, v};
  }

  /// Applies `delta` if every op is valid in sequence and returns true;
  /// otherwise returns false and leaves the model unchanged. The rules are
  /// restated here independently of DynamicGraph::Apply.
  bool TryApply(const GraphDelta& delta) {
    Model next = *this;
    for (const GraphEdit& edit : delta.edits()) {
      if (edit.kind == GraphEdit::Kind::kAddVertex) {
        if (next.n == kInvalidVertex) return false;
        ++next.n;
        continue;
      }
      if (edit.u >= next.n || edit.v >= next.n || edit.u == edit.v) {
        return false;
      }
      const auto key = Key(edit.u, edit.v);
      if (edit.kind == GraphEdit::Kind::kAddEdge) {
        if (!(edit.weight > 0.0) || !std::isfinite(edit.weight) ||
            (!weighted && edit.weight != 1.0) || next.edges.count(key) != 0) {
          return false;
        }
        next.edges[key] = edit.weight;
      } else if (next.edges.erase(key) != 1) {
        return false;
      }
    }
    *this = std::move(next);
    return true;
  }

  void Apply(const GraphDelta& delta) { ASSERT_TRUE(TryApply(delta)); }

  /// Scratch rebuild through the ordinary construction path.
  CsrGraph Build() const {
    GraphBuilder builder(n);
    builder.set_directed(directed);
    for (const auto& [key, weight] : edges) {
      if (weighted) {
        builder.AddWeightedEdge(key.first, key.second, weight);
      } else {
        builder.AddEdge(key.first, key.second);
      }
    }
    auto built = builder.Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return std::move(built).value();
  }
};

void ExpectGraphsIdentical(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.weighted(), b.weighted());
  ASSERT_EQ(a.directed(), b.directed());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "vertex " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << "vertex " << v << " slot " << i;
    }
    if (a.weighted()) {
      const auto wa = a.weights(v);
      const auto wb = b.weights(v);
      for (std::size_t i = 0; i < wa.size(); ++i) {
        ASSERT_EQ(wa[i], wb[i]) << "vertex " << v << " slot " << i;
      }
    }
  }
}

/// Orients each edge of an undirected graph: u→v, v→u, or both.
CsrGraph Orient(const CsrGraph& graph, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(graph.num_vertices());
  builder.set_directed(true);
  for (const CsrGraph::Edge& e : graph.CollectEdges()) {
    const std::uint64_t roll = rng.NextBounded(3);
    if (roll != 1) builder.AddEdge(e.u, e.v);
    if (roll != 0) builder.AddEdge(e.v, e.u);
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// Applies a single-op or multi-op delta built by `fill`.
template <typename Fill>
Status ApplyOps(DynamicGraph* dynamic, Fill fill) {
  GraphDelta delta;
  fill(delta);
  return dynamic->Apply(delta);
}

// ----------------------------------------------------------- edit batches

TEST(DynamicGraphTest, ComposesAddsAndRemovesInAscendingOrder) {
  DynamicGraph dynamic(MakePath(6));  // 0-1-2-3-4-5
  ASSERT_TRUE(ApplyOps(&dynamic, [](GraphDelta& d) { d.AddEdge(0, 5); }).ok());
  ASSERT_TRUE(ApplyOps(&dynamic, [](GraphDelta& d) {
                d.AddEdge(0, 3).RemoveEdge(0, 1);
              }).ok());
  const CsrGraph& csr = dynamic.Csr();
  EXPECT_EQ(csr.num_edges(), 6u);
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_TRUE(csr.HasEdge(0, 3));
  EXPECT_TRUE(csr.HasEdge(5, 0));
  EXPECT_FALSE(csr.HasEdge(0, 1));
  EXPECT_FALSE(csr.HasEdge(1, 0));
  EXPECT_FALSE(csr.weighted());
  const auto ids = csr.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(ids.begin(), ids.end()),
            (std::vector<VertexId>{3, 5}));
}

TEST(DynamicGraphTest, AddVertexExtendsIdSpace) {
  DynamicGraph dynamic(MakeCycle(4));
  ASSERT_TRUE(
      ApplyOps(&dynamic, [](GraphDelta& d) { d.AddVertices(1); }).ok());
  EXPECT_EQ(dynamic.Csr().num_vertices(), 5u);
  EXPECT_EQ(dynamic.Csr().degree(4), 0u);
  ASSERT_TRUE(ApplyOps(&dynamic, [](GraphDelta& d) { d.AddEdge(1, 4); }).ok());
  EXPECT_TRUE(dynamic.Csr().HasEdge(4, 1));
  const auto ids = dynamic.Csr().neighbors(4);
  EXPECT_EQ(std::vector<VertexId>(ids.begin(), ids.end()),
            (std::vector<VertexId>{1}));
}

TEST(DynamicGraphTest, WeightedRemoveThenReAddKeepsNewWeight) {
  GraphBuilder builder(3);
  builder.AddWeightedEdge(0, 1, 2.0);
  builder.AddWeightedEdge(1, 2, 3.0);
  DynamicGraph dynamic(std::move(builder.Build()).value());
  ASSERT_TRUE(ApplyOps(&dynamic, [](GraphDelta& d) {
                d.RemoveEdge(0, 1).AddEdge(0, 1, 7.5);
              }).ok());
  EXPECT_EQ(dynamic.Csr().EdgeWeight(0, 1), 7.5);
  EXPECT_EQ(dynamic.Csr().EdgeWeight(1, 0), 7.5);
  // The removal resolves to the weight the edge had when it went away.
  GraphDelta remove;
  remove.RemoveEdge(1, 0);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(remove, &resolved).ok());
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].weight, 7.5);
  const CsrGraph& csr = dynamic.Csr();
  EXPECT_EQ(csr.num_edges(), 1u);
  EXPECT_TRUE(csr.weighted());
  EXPECT_EQ(csr.EdgeWeight(1, 2), 3.0);
}

TEST(DynamicGraphTest, ReAddAtBaseWeightRestoresTheStartGraph) {
  const CsrGraph start =
      AssignUniformWeights(MakeCycle(5), 0.5, 2.0, /*seed=*/3);
  const double w01 = start.EdgeWeight(0, 1);
  DynamicGraph dynamic(start);
  // Within one batch (the net no-op merges nothing) ...
  ASSERT_TRUE(ApplyOps(&dynamic, [&](GraphDelta& d) {
                d.RemoveEdge(0, 1).AddEdge(1, 0, w01);
              }).ok());
  ExpectGraphsIdentical(dynamic.Csr(), start);
  // ... and across two batches.
  ASSERT_TRUE(ApplyOps(&dynamic, [](GraphDelta& d) { d.RemoveEdge(0, 1); })
                  .ok());
  ASSERT_TRUE(
      ApplyOps(&dynamic, [&](GraphDelta& d) { d.AddEdge(0, 1, w01); }).ok());
  ExpectGraphsIdentical(dynamic.Csr(), start);
}

TEST(DynamicGraphTest, ApplyIsAtomicOnMidBatchFailure) {
  const CsrGraph start = MakePath(4);
  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.AddEdge(0, 2).RemoveEdge(0, 2).RemoveEdge(0, 2);  // last op invalid
  std::vector<GraphEdit> resolved{GraphEdit{}};
  const Status status = dynamic.Apply(delta, &resolved);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("remove {0,2}: no such edge"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(resolved.size(), 1u);  // untouched on failure
  ExpectGraphsIdentical(dynamic.Csr(), start);
}

TEST(DynamicGraphTest, SequentialValidationAllowsIntraBatchDependencies) {
  DynamicGraph dynamic(MakePath(3));
  GraphDelta delta;
  delta.AddVertices(1).AddEdge(0, 3).RemoveEdge(0, 3).AddEdge(2, 3);
  ASSERT_TRUE(dynamic.Apply(delta).ok());
  EXPECT_EQ(dynamic.Csr().num_vertices(), 4u);
  EXPECT_TRUE(dynamic.Csr().HasEdge(2, 3));
  EXPECT_FALSE(dynamic.Csr().HasEdge(0, 3));
}

TEST(DynamicGraphTest, RejectsInvalidEdits) {
  const CsrGraph start = MakePath(4);
  DynamicGraph dynamic(start);
  const auto add = [&](VertexId u, VertexId v, double w = 1.0) {
    return ApplyOps(&dynamic, [&](GraphDelta& d) { d.AddEdge(u, v, w); });
  };
  const auto remove = [&](VertexId u, VertexId v) {
    return ApplyOps(&dynamic, [&](GraphDelta& d) { d.RemoveEdge(u, v); });
  };
  EXPECT_FALSE(add(0, 1).ok());        // duplicate
  EXPECT_FALSE(add(1, 0).ok());        // duplicate, reversed
  EXPECT_FALSE(add(2, 2).ok());        // self-loop
  EXPECT_FALSE(add(0, 9).ok());        // out of range
  EXPECT_FALSE(add(0, 2, -1.0).ok());  // non-positive weight
  EXPECT_FALSE(add(0, 2, 2.5).ok());   // weighted on unweighted
  EXPECT_FALSE(remove(0, 2).ok());     // no such edge
  EXPECT_FALSE(remove(0, 9).ok());     // out of range
  EXPECT_FALSE(remove(1, 1).ok());     // self-loop
  ExpectGraphsIdentical(dynamic.Csr(), start);

  const CsrGraph weighted_start =
      AssignUniformWeights(MakePath(4), 0.5, 2.0, /*seed=*/1);
  DynamicGraph weighted(weighted_start);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    const Status status =
        ApplyOps(&weighted, [&](GraphDelta& d) { d.AddEdge(0, 2, bad); });
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
  ExpectGraphsIdentical(weighted.Csr(), weighted_start);
}

TEST(DynamicGraphTest, CsrMatcherScratchRebuildAfterMixedEdits) {
  const CsrGraph start = MakeConnectedCaveman(4, 6);
  Model model = Model::FromGraph(start);
  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.RemoveEdge(0, 1).AddEdge(0, 12).AddVertices(2).AddEdge(24, 25)
      .AddEdge(3, 24);
  model.Apply(delta);
  ASSERT_TRUE(dynamic.Apply(delta).ok());
  ExpectGraphsIdentical(dynamic.Csr(), model.Build());
  EXPECT_EQ(dynamic.Csr().name(), start.name());
}

// ------------------------------------------------------------ edit scripts

TEST(EditScriptTest, ParsesAddRemoveAddVertexAndComments) {
  const auto delta = ParseEditScriptText(
      "# header comment\n"
      "add 0 5\n"
      "\n"
      "remove 3 4   # trailing comment\n"
      "addvertex\n"
      "addvertex 3\n"
      "add 1 2 0.25\n",
      "test");
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  const auto& edits = delta.value().edits();
  ASSERT_EQ(edits.size(), 7u);
  EXPECT_EQ(edits[0].kind, GraphEdit::Kind::kAddEdge);
  EXPECT_EQ(edits[0].u, 0u);
  EXPECT_EQ(edits[0].v, 5u);
  EXPECT_EQ(edits[1].kind, GraphEdit::Kind::kRemoveEdge);
  EXPECT_EQ(edits[2].kind, GraphEdit::Kind::kAddVertex);
  EXPECT_EQ(edits[5].kind, GraphEdit::Kind::kAddVertex);
  EXPECT_EQ(edits[6].weight, 0.25);
}

TEST(EditScriptTest, RejectsMalformedLinesWithLineNumbers) {
  const char* bad[] = {
      "frobnicate 1 2",       // unknown op
      "add 1",                // missing operand
      "add -1 2",             // negative id
      "add 1 2 0",            // non-positive weight
      "add 1 2 1e999",        // weight overflows to inf
      "add 1 2 2.5x",         // weight with trailing junk
      "add 1 2 1.0 extra",    // trailing junk
      "remove 1 2 3",         // trailing junk
      "addvertex 0",          // zero count
      "addvertex 4294967295", // count beyond the id space
      "addvertex 1048577",    // one past kMaxScriptAddedVertices
  };
  for (const char* line : bad) {
    const auto delta = ParseEditScriptText(line, "bad");
    ASSERT_FALSE(delta.ok()) << "accepted: " << line;
    EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(delta.status().message().find("bad:1"), std::string::npos)
        << delta.status().ToString();
  }
}

TEST(EditScriptTest, CapsVerticesAddedPerScript) {
  const auto at_cap = ParseEditScriptText(
      "addvertex " + std::to_string(kMaxScriptAddedVertices), "cap");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap.value().size(), kMaxScriptAddedVertices);
  // The cap is per script: the line that crosses it is the one named.
  const auto over = ParseEditScriptText(
      "addvertex " + std::to_string(kMaxScriptAddedVertices - 1) +
          "\naddvertex\naddvertex\n",
      "cap");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.status().message().find("cap:3"), std::string::npos)
      << over.status().ToString();
}

TEST(EditScriptTest, FileRoundTripsAndMissingFileIsIoError) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "mhbc_edit_script_test.edits").string();
  GraphDelta delta;
  // The last weight needs all 17 significant digits to round-trip: the
  // writer must emit full double precision.
  delta.AddEdge(3, 4).RemoveEdge(1, 2).AddVertices(2).AddEdge(5, 6, 2.5)
      .AddEdge(7, 8, 0.6123456789012345);
  ASSERT_TRUE(WriteEditScript(delta, path).ok());
  const auto parsed = ParseEditScript(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), delta.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    EXPECT_EQ(parsed.value().edits()[i].kind, delta.edits()[i].kind);
    EXPECT_EQ(parsed.value().edits()[i].u, delta.edits()[i].u);
    EXPECT_EQ(parsed.value().edits()[i].v, delta.edits()[i].v);
    EXPECT_EQ(parsed.value().edits()[i].weight, delta.edits()[i].weight);
  }
  std::remove(path.c_str());
  EXPECT_EQ(ParseEditScript(path).status().code(), StatusCode::kIoError);
}

// ------------------------------------------- oracle edit invalidation

TEST(DependencyOracleDeltaTest, IntraLevelEditKeepsPassesAndStaysExact) {
  // Grid: plenty of equal-depth vertex pairs for intra-level edits.
  const CsrGraph start = MakeGrid(6, 6);
  auto memo = std::make_shared<DependencyMemo>();
  DependencyOracle oracle(start, SpdOptions(), memo);
  DependencyOracle sibling(start, SpdOptions(), memo);
  oracle.set_cache_capacity(64);
  const VertexId source = 0;
  (void)oracle.Dependencies(source);
  ASSERT_EQ(oracle.cached_entries(), 1u);

  // Find an insertable pair at equal hop depth from `source`.
  BfsSpd bfs(start);
  bfs.Run(source);
  const auto& dist = bfs.dag().dist;
  VertexId a = kInvalidVertex, b = kInvalidVertex;
  for (VertexId u = 0; u < start.num_vertices() && a == kInvalidVertex; ++u) {
    for (VertexId v = u + 1; v < start.num_vertices(); ++v) {
      if (dist[u] == dist[v] && !start.HasEdge(u, v)) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_NE(a, kInvalidVertex);

  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.AddEdge(a, b);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  const CsrGraph& next = dynamic.Csr();
  oracle.ApplyGraphDelta(next, resolved);
  EXPECT_EQ(oracle.cached_entries(), 1u);  // the pass survived
  EXPECT_EQ(oracle.invalidated_entries(), 0u);
  // A sibling rebinding to the same batch leaves the survivor in place.
  const DependencyMemo::EntryPtr survivor = memo->Find(source);
  sibling.ApplyGraphDelta(next, resolved);
  EXPECT_EQ(memo->Find(source), survivor);
  EXPECT_EQ(oracle.invalidated_entries(), 0u);

  const std::uint64_t hits_before = oracle.cache_hits();
  const std::vector<double> served = oracle.Dependencies(source);
  EXPECT_EQ(oracle.cache_hits(), hits_before + 1);

  DependencyOracle cold(next);
  const std::vector<double>& fresh = cold.Dependencies(source);
  ASSERT_EQ(served.size(), fresh.size());
  for (std::size_t v = 0; v < fresh.size(); ++v) {
    EXPECT_EQ(served[v], fresh[v]) << "vertex " << v;
  }
}

TEST(DependencyOracleDeltaTest, CrossLevelEditDropsTheTouchedPass) {
  const CsrGraph start = MakePath(8);
  DependencyOracle oracle(start);
  oracle.set_cache_capacity(64);
  (void)oracle.Dependencies(0);
  (void)oracle.Dependencies(3);
  ASSERT_EQ(oracle.cached_entries(), 2u);

  // Chord {0,7}: depths from any path vertex differ by 7 - 2*min(...),
  // never zero on a path of even span — both passes must drop.
  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.AddEdge(0, 7);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  oracle.ApplyGraphDelta(dynamic.Csr(), resolved);
  EXPECT_EQ(oracle.cached_entries(), 0u);
  EXPECT_EQ(oracle.invalidated_entries(), 2u);

  // Recomputation serves the post-edit graph.
  DependencyOracle cold(dynamic.Csr());
  const std::vector<double> served = oracle.Dependencies(0);
  const std::vector<double>& fresh = cold.Dependencies(0);
  for (std::size_t v = 0; v < fresh.size(); ++v) {
    EXPECT_EQ(served[v], fresh[v]) << "vertex " << v;
  }
}

TEST(DependencyOracleDeltaTest, VertexAppendExtendsSurvivingPasses) {
  const CsrGraph start = MakeCycle(6);
  DependencyOracle oracle(start);
  oracle.set_cache_capacity(64);
  (void)oracle.Dependencies(2);

  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.AddVertices(2);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  oracle.ApplyGraphDelta(dynamic.Csr(), resolved);
  EXPECT_EQ(oracle.cached_entries(), 1u);

  const std::vector<double> served = oracle.Dependencies(2);
  ASSERT_EQ(served.size(), 8u);
  EXPECT_EQ(served[6], 0.0);
  EXPECT_EQ(served[7], 0.0);
  DependencyOracle cold(dynamic.Csr());
  const std::vector<double>& fresh = cold.Dependencies(2);
  for (std::size_t v = 0; v < fresh.size(); ++v) {
    EXPECT_EQ(served[v], fresh[v]) << "vertex " << v;
  }
}

// ------------------------------------- randomized equivalence harness
//
// The lockdown the dynamic-graph subsystem answers to: for every random
// edit script, every statistical field an ApplyDelta-refreshed engine
// reports must be bit-identical to a cold engine constructed on the
// scratch-rebuilt post-edit graph — at 1/2/4 threads, with the BFS kernel
// pinned top-down (alpha = 0) and direction-optimizing. The matrix below runs 216 scripts through that check (36 per
// configuration, mutating continuously across scripts so multi-epoch
// cache state is exercised), plus the structural sweep further down.

void ExpectReportsIdentical(const EstimateReport& a, const EstimateReport& b,
                            const std::string& where) {
  EXPECT_EQ(a.value, b.value) << where;
  EXPECT_EQ(a.samples_used, b.samples_used) << where;
  EXPECT_EQ(a.acceptance_rate, b.acceptance_rate) << where;
  EXPECT_EQ(a.ess, b.ess) << where;
  EXPECT_EQ(a.std_error, b.std_error) << where;
  EXPECT_EQ(a.ci_half_width, b.ci_half_width) << where;
  EXPECT_EQ(a.converged, b.converged) << where;
}

/// SpdOptions::alpha values the sweep runs: 0 pins every BFS level
/// top-down; the default lets the kernel switch direction.
constexpr double kTopDownOnly = 0.0;
constexpr double kHybrid = SpdOptions{}.alpha;

void RunEquivalenceSweep(unsigned num_threads, double alpha,
                         std::uint64_t seed_base, int num_scripts) {
  EngineOptions options;
  options.num_threads = num_threads;
  options.spd.alpha = alpha;

  const CsrGraph start = MakeConnectedCaveman(5, 8);  // n = 40
  Model model = Model::FromGraph(start);
  BetweennessEngine incremental(start, options);

  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 100;
  request.seed = 0xD11A + seed_base;

  for (int script = 0; script < num_scripts; ++script) {
    const std::uint64_t seed = seed_base * 1'000 + script;
    // engine.graph() is the current composed graph — the script generator
    // needs it to stay consistent with the evolving state.
    const GraphDelta delta =
        MakeRandomEditScript(incremental.graph(), 4, seed);
    model.Apply(delta);
    ASSERT_TRUE(incremental.ApplyDelta(delta).ok());
    EXPECT_EQ(incremental.graph_epoch(),
              static_cast<std::uint64_t>(script) + 1);

    const CsrGraph scratch = model.Build();
    ExpectGraphsIdentical(incremental.graph(), scratch);

    BetweennessEngine cold(scratch, options);
    const std::vector<VertexId> targets{
        static_cast<VertexId>(seed % model.n),
        static_cast<VertexId>((seed / 7) % model.n)};
    const auto warm_reports = incremental.EstimateMany(targets, request);
    const auto cold_reports = cold.EstimateMany(targets, request);
    ASSERT_TRUE(warm_reports.ok()) << warm_reports.status().ToString();
    ASSERT_TRUE(cold_reports.ok()) << cold_reports.status().ToString();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      ExpectReportsIdentical(
          warm_reports.value()[i], cold_reports.value()[i],
          "script " + std::to_string(script) + " target " +
              std::to_string(targets[i]) + " threads " +
              std::to_string(num_threads) + " kernel " +
              (alpha == kTopDownOnly ? "top-down" : "hybrid"));
    }
  }
}

TEST(DynamicEquivalenceTest, Threads1TopDown) {
  RunEquivalenceSweep(1, kTopDownOnly, 1, 36);
}
TEST(DynamicEquivalenceTest, Threads1Hybrid) {
  RunEquivalenceSweep(1, kHybrid, 2, 36);
}
TEST(DynamicEquivalenceTest, Threads2TopDown) {
  RunEquivalenceSweep(2, kTopDownOnly, 3, 36);
}
TEST(DynamicEquivalenceTest, Threads2Hybrid) {
  RunEquivalenceSweep(2, kHybrid, 4, 36);
}
TEST(DynamicEquivalenceTest, Threads4TopDown) {
  RunEquivalenceSweep(4, kTopDownOnly, 5, 36);
}
TEST(DynamicEquivalenceTest, Threads4Hybrid) {
  RunEquivalenceSweep(4, kHybrid, 6, 36);
}

// Exact scores, iid source sampling, and the RK credit vector must also
// match a cold engine after every mutation (their whole-graph caches are
// rebuilt, not patched).
TEST(DynamicEquivalenceTest, OtherEstimatorsMatchColdAfterEdits) {
  EngineOptions options;
  options.num_threads = 2;
  const CsrGraph start = MakeErdosRenyiGnp(48, 0.12, 0xE5);
  Model model = Model::FromGraph(start);
  BetweennessEngine incremental(start, options);

  for (int script = 0; script < 12; ++script) {
    const GraphDelta delta =
        MakeRandomEditScript(incremental.graph(), 3, 0xBEEF + script);
    model.Apply(delta);
    ASSERT_TRUE(incremental.ApplyDelta(delta).ok());
    const CsrGraph scratch = model.Build();
    BetweennessEngine cold(scratch, options);

    for (const EstimatorKind kind :
         {EstimatorKind::kExact, EstimatorKind::kUniformSource,
          EstimatorKind::kShortestPath}) {
      EstimateRequest request;
      request.kind = kind;
      request.samples = 64;
      request.seed = 0xF00 + script;
      const VertexId target = static_cast<VertexId>((script * 11) % model.n);
      const auto warm = incremental.Estimate(target, request);
      const auto cold_report = cold.Estimate(target, request);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ASSERT_TRUE(cold_report.ok()) << cold_report.status().ToString();
      ExpectReportsIdentical(warm.value(), cold_report.value(),
                             "script " + std::to_string(script) + " kind " +
                                 EstimatorKindName(kind));
    }
  }
}

// A weighted-graph sweep: the oracle invalidates wholesale there, but the
// mutation contract (bit-identity with a cold engine) must still hold.
TEST(DynamicEquivalenceTest, WeightedGraphMatchesColdAfterEdits) {
  const CsrGraph start =
      AssignUniformWeights(MakeConnectedCaveman(4, 7), 0.5, 2.0, 0x77);
  Model model = Model::FromGraph(start);
  BetweennessEngine incremental(start);

  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 80;
  request.seed = 0x3E;
  for (int script = 0; script < 10; ++script) {
    const GraphDelta delta =
        MakeRandomEditScript(incremental.graph(), 3, 0xAB + script * 13);
    model.Apply(delta);
    ASSERT_TRUE(incremental.ApplyDelta(delta).ok());
    const CsrGraph scratch = model.Build();
    ExpectGraphsIdentical(incremental.graph(), scratch);
    BetweennessEngine cold(scratch);
    const VertexId target = static_cast<VertexId>((script * 5) % model.n);
    const auto warm = incremental.Estimate(target, request);
    const auto cold_report = cold.Estimate(target, request);
    ASSERT_TRUE(warm.ok() && cold_report.ok());
    ExpectReportsIdentical(warm.value(), cold_report.value(),
                           "weighted script " + std::to_string(script));
  }
}

// Emptying a weighted graph on a later edit. By then the oracle is bound
// to the engine's own graph object, already rewritten when it rebinds, so
// the pre-edit kind has to come from the kernel: the cached weighted pass
// keeps no hop distances and must drop, not survive.
TEST(DynamicEquivalenceTest, EmptyingAWeightedGraphOnALaterEditMatchesCold) {
  const CsrGraph start = AssignUniformWeights(MakePath(4), 1.0, 3.0, 0x9a);
  ASSERT_TRUE(start.weighted());
  BetweennessEngine engine(start);
  EstimateRequest request;
  request.kind = EstimatorKind::kUniformSource;
  request.samples = 64;
  request.seed = 5;
  ASSERT_TRUE(engine.Estimate(1, request).ok());

  GraphDelta grow;
  grow.AddVertices(1);
  ASSERT_TRUE(engine.ApplyDelta(grow).ok());
  GraphDelta empty;
  empty.RemoveEdge(0, 1).RemoveEdge(1, 2).RemoveEdge(2, 3);
  ASSERT_TRUE(engine.ApplyDelta(empty).ok());
  ASSERT_FALSE(engine.graph().weighted());

  const CsrGraph emptied = engine.graph();
  BetweennessEngine cold(emptied);
  const auto warm = engine.Estimate(1, request);
  const auto cold_report = cold.Estimate(1, request);
  ASSERT_TRUE(warm.ok() && cold_report.ok());
  EXPECT_EQ(cold_report.value().value, 0.0);
  ExpectReportsIdentical(warm.value(), cold_report.value(), "emptied");
}

// Structural-only sweep at higher volume: every random script leaves
// Csr() and a scratch rebuild in exact agreement (60 more scripts across
// three generator families).
TEST(DynamicEquivalenceTest, RandomScriptsKeepCompositionExact) {
  const CsrGraph starts[] = {MakeBarabasiAlbert(60, 2, 0x5EED),
                             MakeGrid(7, 8), MakeWattsStrogatz(50, 4, 0.2, 9)};
  int script_seed = 0;
  for (const CsrGraph& start : starts) {
    Model model = Model::FromGraph(start);
    DynamicGraph dynamic(start);
    for (int script = 0; script < 20; ++script) {
      const GraphDelta delta =
          MakeRandomEditScript(dynamic.Csr(), 6, 0xC0FFEE + script_seed++);
      model.Apply(delta);
      ASSERT_TRUE(dynamic.Apply(delta).ok());
      ExpectGraphsIdentical(dynamic.Csr(), model.Build());
    }
  }
}

// Differential fuzz of the edit-script path: valid random scripts are
// written to text, damaged by seeded byte flips, truncations, line swaps
// and repeated lines, then parsed and applied to both DynamicGraph and the Model. The
// two must agree on whether the batch is valid; a valid one must produce
// the model's graph, and a rejected one must leave Csr() as it was.
std::string ScriptText(const GraphDelta& delta) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mhbc_edit_script_fuzz.edits")
          .string();
  EXPECT_TRUE(WriteEditScript(delta, path).ok());
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return text.str();
}

void Damage(std::string* text, Rng* rng) {
  // Bytes a valid script is made of, so many flips still parse.
  static constexpr char kAlphabet[] = "0123456789 .e-+\n#adremovtx";
  const std::uint64_t mutations = rng->NextBounded(4);
  for (std::uint64_t m = 0; m < mutations && !text->empty(); ++m) {
    switch (rng->NextBounded(4)) {
      case 0: {  // byte flip
        const std::size_t at = rng->NextBounded(text->size());
        (*text)[at] = rng->NextBernoulli(0.8)
                          ? kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)]
                          : static_cast<char>(rng->NextBounded(256));
        break;
      }
      case 1:  // truncation
        text->resize(rng->NextBounded(text->size()));
        break;
      default: {  // swap two lines, or repeat one (a semantic error)
        std::vector<std::string> lines;
        std::istringstream in(*text);
        for (std::string line; std::getline(in, line);) lines.push_back(line);
        if (lines.empty()) break;
        const std::size_t a = rng->NextBounded(lines.size());
        const std::size_t b = rng->NextBounded(lines.size());
        if (rng->NextBernoulli(0.5)) {
          std::swap(lines[a], lines[b]);
        } else {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b),
                       lines[a]);
        }
        text->clear();
        for (const std::string& line : lines) *text += line + "\n";
        break;
      }
    }
  }
}

TEST(EditScriptFuzzTest, DamagedScriptsMatchTheModelOrBothReject) {
  const CsrGraph starts[] = {
      MakeBarabasiAlbert(60, 2, 0xF1),
      AssignUniformWeights(MakeGrid(7, 8), 0.5, 2.0, 0xF2),
      Orient(MakeBarabasiAlbert(50, 2, 0xF3), 0xF4)};
  Rng rng(0xF0F0);
  std::size_t applied = 0, rejected = 0, unparsable = 0;
  for (const CsrGraph& start : starts) {
    Model model = Model::FromGraph(start);
    DynamicGraph dynamic(start);
    for (int round = 0; round < 200; ++round) {
      const GraphDelta valid = MakeRandomEditScript(
          dynamic.Csr(), 1 + rng.NextBounded(8), rng.NextU64());
      std::string text = ScriptText(valid);
      Damage(&text, &rng);
      const auto parsed = ParseEditScriptText(text, "fuzz");
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(parsed.status().message().rfind("fuzz:", 0), 0u)
            << parsed.status().ToString();
        ++unparsable;
        continue;
      }
      const CsrGraph before = dynamic.Csr();
      const bool model_ok = model.TryApply(parsed.value());
      const Status status = dynamic.Apply(parsed.value());
      ASSERT_EQ(status.ok(), model_ok) << status.ToString() << "\n" << text;
      if (status.ok()) {
        ++applied;
        ExpectGraphsIdentical(dynamic.Csr(), model.Build());
      } else {
        ++rejected;
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
        ExpectGraphsIdentical(dynamic.Csr(), before);
      }
    }
  }
  // The damage rates keep every outcome well represented.
  EXPECT_GT(applied, 100u);
  EXPECT_GT(rejected, 40u);
  EXPECT_GT(unparsable, 100u);
}

TEST(DynamicEquivalenceTest, ApplyDeltaFailureLeavesEngineUsable) {
  const CsrGraph start = MakeCycle(8);
  BetweennessEngine engine(start);
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 50;
  const auto before = engine.Estimate(1, request);
  ASSERT_TRUE(before.ok());

  GraphDelta bad;
  bad.AddEdge(0, 4).RemoveEdge(2, 6);  // second op: no such edge
  EXPECT_FALSE(engine.ApplyDelta(bad).ok());
  EXPECT_EQ(engine.graph_epoch(), 0u);
  EXPECT_EQ(engine.graph().num_edges(), 8u);

  const auto after = engine.Estimate(1, request);
  ASSERT_TRUE(after.ok());
  ExpectReportsIdentical(before.value(), after.value(), "failed-delta");
}

}  // namespace
}  // namespace mhbc
