// Concurrency + epoch-safety suite for the serving stack (runs in the
// TSan CI job). N client threads fire estimate traffic while a mutator
// thread streams a pre-generated delta chain through `mutate`; every
// response carries the epoch its lease observed, and afterwards each
// response is replayed against a COLD engine built on that epoch's graph
// — every statistical report field must match bit for bit, through the
// %.17g wire round-trip. A reader racing a mutation must therefore see
// either the old epoch's exact answer or the new one's, never a torn mix.

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "centrality/engine.h"
#include "datasets/registry.h"
#include "exact/dependency_memo.h"
#include "graph/dynamic_graph.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace mhbc::serve {
namespace {

constexpr std::size_t kReaderThreads = 4;
constexpr std::size_t kReadsPerThread = 6;
constexpr std::size_t kMutations = 4;
constexpr std::size_t kEditsPerMutation = 3;
constexpr std::uint64_t kSamples = 200;
const std::vector<VertexId> kTargets = {0, 8, 17};

/// Serializes a GraphDelta back into the docs/formats.md text format for
/// the wire (`edits` field).
std::string DeltaToText(const GraphDelta& delta) {
  std::string text;
  for (const GraphEdit& edit : delta.edits()) {
    switch (edit.kind) {
      case GraphEdit::Kind::kAddEdge:
        text += "add ";
        text += std::to_string(edit.u);
        text += ' ';
        text += std::to_string(edit.v);
        if (edit.weight != 1.0) {
          text += ' ';
          text += std::to_string(edit.weight);
        }
        break;
      case GraphEdit::Kind::kRemoveEdge:
        text += "remove ";
        text += std::to_string(edit.u);
        text += ' ';
        text += std::to_string(edit.v);
        break;
      case GraphEdit::Kind::kAddVertex:
        text += "addvertex";
        break;
    }
    text += "\\n";  // JSON-escaped newline, embedded in the request string
  }
  return text;
}

std::string EstimateLine(std::uint64_t id, std::uint64_t seed) {
  std::string vertices;
  for (const VertexId v : kTargets) {
    if (!vertices.empty()) vertices += ", ";
    vertices += std::to_string(v);
  }
  return "{\"id\": " + std::to_string(id) +
         ", \"method\": \"estimate\", \"graph\": \"caveman-36\", "
         "\"vertices\": [" +
         vertices + "], \"samples\": " + std::to_string(kSamples) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

/// The replay harness at a given session count: one session serializes
/// every reader on one engine, more sessions serve concurrently from the
/// entry's one shared memo. The statistical fields must not depend on it.
class ServeSessionsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ServeSessionsTest, ConcurrentReadsMatchColdEngineAtEveryEpoch) {
  const std::size_t sessions = GetParam();
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());

  // Pre-generate the delta chain and the per-epoch graph snapshots the
  // cold-engine replay will verify against: snapshot[e] is the graph at
  // epoch e. The chain is built through the same DynamicGraph machinery
  // the engines use, so the replay graphs are the served graphs.
  std::vector<GraphDelta> deltas;
  std::vector<CsrGraph> snapshots;
  {
    DynamicGraph dyn(base.value());
    snapshots.push_back(dyn.Csr());
    for (std::size_t i = 0; i < kMutations; ++i) {
      const GraphDelta delta =
          MakeRandomEditScript(dyn.Csr(), kEditsPerMutation, 0xec0 + i);
      ASSERT_TRUE(dyn.Apply(delta).ok());
      deltas.push_back(delta);
      snapshots.push_back(dyn.Csr());
    }
  }

  const EngineOptions engine_options;  // identical for pool and replay
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddGraph("caveman-36", base.value(), engine_options,
                            sessions)
                  .ok());
  ServerOptions server_options;
  server_options.workers = kReaderThreads + 1;
  server_options.queue_capacity = 64;
  Server server(&catalog, server_options);

  // Fire the mixed workload. Seeds are globally unique so no session
  // serves a repeated request from its result cache (which would report
  // samples_used=0 and weaken the comparison below).
  struct Observed {
    std::uint64_t epoch;
    std::uint64_t seed;
    std::vector<WireReport> reports;
  };
  std::vector<std::vector<Observed>> per_thread(kReaderThreads);
  std::vector<std::string> mutate_responses(kMutations);
  std::vector<std::thread> threads;
  threads.reserve(kReaderThreads + 1);
  for (std::size_t t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kReadsPerThread; ++i) {
        const std::uint64_t seed = 1000 * (t + 1) + i;
        const std::string line =
            server.Call(EstimateLine(/*id=*/seed, seed));
        auto response = ParseServeResponse(line);
        ASSERT_TRUE(response.ok()) << line;
        ASSERT_TRUE(response.value().ok) << line;
        per_thread[t].push_back(Observed{response.value().epoch, seed,
                                         response.value().reports});
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < kMutations; ++i) {
      const std::string line = server.Call(
          "{\"id\": " + std::to_string(900 + i) +
          ", \"method\": \"mutate\", \"graph\": \"caveman-36\", "
          "\"edits\": \"" +
          DeltaToText(deltas[i]) + "\"}");
      mutate_responses[i] = line;
      std::this_thread::yield();  // let readers interleave between epochs
    }
  });
  for (std::thread& thread : threads) thread.join();

  // Mutations installed in order, one epoch each.
  for (std::size_t i = 0; i < kMutations; ++i) {
    auto response = ParseServeResponse(mutate_responses[i]);
    ASSERT_TRUE(response.ok()) << mutate_responses[i];
    ASSERT_TRUE(response.value().ok) << mutate_responses[i];
    EXPECT_EQ(response.value().epoch, i + 1);
  }

  // Replay every observation on a cold engine built on its epoch's graph.
  // The engine mutation contract promises bit-identical statistical
  // fields; the %.17g wire preserves them; so EXPECT_EQ on doubles is the
  // correct comparison — any tolerance would mask a torn read.
  std::size_t replayed = 0;
  for (const auto& observations : per_thread) {
    EXPECT_EQ(observations.size(), kReadsPerThread);
    for (const Observed& observed : observations) {
      ASSERT_LE(observed.epoch, kMutations);
      BetweennessEngine cold(snapshots[observed.epoch], engine_options);
      EstimateRequest request;
      request.samples = kSamples;
      request.seed = observed.seed;
      auto expected = cold.EstimateMany(kTargets, request);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(observed.reports.size(), kTargets.size());
      for (std::size_t v = 0; v < kTargets.size(); ++v) {
        const EstimateReport& want = expected.value()[v];
        const WireReport& got = observed.reports[v];
        EXPECT_EQ(got.vertex, want.vertex);
        EXPECT_EQ(got.value, want.value) << "epoch " << observed.epoch
                                         << " seed " << observed.seed;
        EXPECT_EQ(got.std_error, want.std_error);
        EXPECT_EQ(got.ci_half_width, want.ci_half_width);
        EXPECT_EQ(got.ess, want.ess);
        EXPECT_EQ(got.acceptance_rate, want.acceptance_rate);
        EXPECT_EQ(got.samples_used, want.samples_used);
        EXPECT_EQ(got.converged, want.converged);
        ++replayed;
      }
    }
  }
  EXPECT_EQ(replayed, kReaderThreads * kReadsPerThread * kTargets.size());

  // The pool must be fully parked and at the final epoch.
  const GraphEntryStats stats = catalog.Find("caveman-36")->Stats();
  EXPECT_EQ(stats.epoch, kMutations);
  EXPECT_EQ(stats.sessions_free, stats.sessions);
  EXPECT_EQ(stats.mutations_applied, kMutations);
}

INSTANTIATE_TEST_SUITE_P(Sessions, ServeSessionsTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}));

TEST(ServeConcurrencyTest, WriterDrainsReadersAndReadersNeverSeeTornPool) {
  // Direct catalog-level hammering (no protocol): many lease/release
  // cycles racing mutations; every lease must observe a consistent
  // (epoch, graph) pair — checked via vertex count, which the delta
  // chain changes over time.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  std::vector<GraphDelta> deltas;
  std::vector<VertexId> vertices_at_epoch;
  {
    DynamicGraph dyn(base.value());
    vertices_at_epoch.push_back(dyn.Csr().num_vertices());
    for (std::size_t i = 0; i < 6; ++i) {
      const GraphDelta delta = MakeRandomEditScript(dyn.Csr(), 4, 0xbeef + i);
      ASSERT_TRUE(dyn.Apply(delta).ok());
      deltas.push_back(delta);
      vertices_at_epoch.push_back(dyn.Csr().num_vertices());
    }
  }
  GraphEntry entry("g", base.value(), EngineOptions(), /*sessions=*/3);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        ReadLease lease = entry.AcquireRead();
        ASSERT_LE(lease.epoch(), deltas.size());
        // Torn-pool detector: the engine's graph must be the one this
        // lease's epoch promises.
        EXPECT_EQ(lease.engine().graph().num_vertices(),
                  vertices_at_epoch[lease.epoch()]);
      }
    });
  }
  threads.emplace_back([&] {
    for (const GraphDelta& delta : deltas) {
      ASSERT_TRUE(entry.Mutate(delta).ok());
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(entry.Stats().epoch, deltas.size());
}

TEST(ServeConcurrencyTest, SessionsShareOneGraphAndAnInvalidDeltaChangesNothing) {
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  GraphEntry entry("g", base.value(), EngineOptions(), /*sessions=*/3);
  // The graph each session serves, read with every session leased at once.
  const auto session_graphs = [&entry] {
    std::vector<ReadLease> leases;
    std::vector<const CsrGraph*> graphs;
    for (std::size_t i = 0; i < 3; ++i) {
      leases.push_back(entry.AcquireRead());
      graphs.push_back(&leases.back().engine().graph());
    }
    return graphs;
  };
  EstimateRequest request;
  request.samples = kSamples;
  {
    ReadLease lease = entry.AcquireRead();
    ASSERT_TRUE(lease.engine().Estimate(8, request).ok());
  }

  ASSERT_TRUE(
      entry.Mutate(MakeRandomEditScript(base.value(), kEditsPerMutation, 0x0e))
          .ok());
  const std::vector<const CsrGraph*> graphs = session_graphs();
  for (const CsrGraph* graph : graphs) EXPECT_EQ(graph, graphs.front());
  const GraphEntryStats before = entry.Stats();
  const CsrGraph edited = *graphs.front();
  EXPECT_EQ(before.num_edges, edited.num_edges());

  // The first op is valid, the second names an edge that does not exist.
  GraphDelta bad;
  bad.AddVertices(1).RemoveEdge(0, edited.num_vertices());
  EXPECT_FALSE(entry.Mutate(bad).ok());
  const GraphEntryStats after = entry.Stats();
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.num_vertices, before.num_vertices);
  EXPECT_EQ(after.num_edges, before.num_edges);
  for (const CsrGraph* graph : session_graphs()) {
    EXPECT_EQ(graph, graphs.front());
    ASSERT_EQ(graph->num_vertices(), edited.num_vertices());
    ASSERT_EQ(graph->num_edges(), edited.num_edges());
    for (VertexId v = 0; v < edited.num_vertices(); ++v) {
      EXPECT_TRUE(std::ranges::equal(graph->neighbors(v),
                                     edited.neighbors(v)))
          << "vertex " << v;
    }
  }
}

TEST(ServeConcurrencyTest, StatsPairsEachEpochWithItsEdgeCount) {
  // One thread polls `stats` while another streams a fixed chain of edit
  // scripts through `mutate`. Every stats reply must pair its epoch with
  // the edge count recorded after that epoch's mutation: the counts come
  // from the catalog's own bookkeeping, never from a session graph a
  // writer may be editing. Counts, not timings, are checked.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  constexpr std::size_t kScripts = 8;
  std::vector<GraphDelta> deltas;
  std::vector<std::uint64_t> edges_at_epoch;
  {
    DynamicGraph dyn(base.value());
    edges_at_epoch.push_back(dyn.Csr().num_edges());
    for (std::size_t i = 0; i < kScripts; ++i) {
      const GraphDelta delta =
          MakeRandomEditScript(dyn.Csr(), kEditsPerMutation, 0x57a7 + i);
      ASSERT_TRUE(dyn.Apply(delta).ok());
      deltas.push_back(delta);
      edges_at_epoch.push_back(dyn.Csr().num_edges());
    }
  }
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddGraph("caveman-36", base.value(), EngineOptions(),
                            /*sessions=*/2)
                  .ok());
  Server server(&catalog, ServerOptions());

  std::atomic<bool> mutations_done{false};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> observed;
  std::thread poller([&] {
    do {
      const std::string line =
          server.Call(R"({"method": "stats", "graph": "caveman-36"})");
      auto response = ParseServeResponse(line);
      ASSERT_TRUE(response.ok()) << line;
      ASSERT_TRUE(response.value().ok) << line;
      const JsonValue* graphs =
          response.value().body.Find("result")->Find("graphs");
      ASSERT_NE(graphs, nullptr) << line;
      ASSERT_EQ(graphs->array.size(), 1u) << line;
      std::uint64_t epoch = 0;
      std::uint64_t num_edges = 0;
      ASSERT_TRUE(graphs->array[0].Find("epoch")->AsUint64(&epoch)) << line;
      ASSERT_TRUE(graphs->array[0].Find("num_edges")->AsUint64(&num_edges))
          << line;
      observed.emplace_back(epoch, num_edges);
    } while (!mutations_done.load());
  });
  for (std::size_t i = 0; i < kScripts; ++i) {
    const std::string line = server.Call(
        "{\"id\": " + std::to_string(700 + i) +
        ", \"method\": \"mutate\", \"graph\": \"caveman-36\", "
        "\"edits\": \"" +
        DeltaToText(deltas[i]) + "\"}");
    auto response = ParseServeResponse(line);
    ASSERT_TRUE(response.ok()) << line;
    ASSERT_TRUE(response.value().ok) << line;
    EXPECT_EQ(response.value().epoch, i + 1);
  }
  mutations_done.store(true);
  poller.join();

  ASSERT_FALSE(observed.empty());
  for (const auto& [epoch, num_edges] : observed) {
    ASSERT_LE(epoch, kScripts);
    EXPECT_EQ(num_edges, edges_at_epoch[epoch]) << "epoch " << epoch;
  }
  const GraphEntryStats final_stats = catalog.Find("caveman-36")->Stats();
  EXPECT_EQ(final_stats.epoch, kScripts);
  EXPECT_EQ(final_stats.num_edges, edges_at_epoch.back());
}

TEST(ServeConcurrencyTest, ConcurrentMutatesEachReportTheirOwnEpoch) {
  // Each round, N one-edit scripts, each adding a distinct absent edge,
  // race through `mutate` on N workers. Each response must describe the
  // install it made, not a later one: a round's epochs are a permutation
  // of the round's N epochs, and the edge count pairs with the epoch
  // (every install adds one edge). The race window is short, so it is
  // run for several rounds.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  const CsrGraph& graph = base.value();
  constexpr std::size_t kWriters = 6;
  constexpr std::size_t kRounds = 20;
  std::vector<std::pair<VertexId, VertexId>> absent;
  for (VertexId u = 0;
       u < graph.num_vertices() && absent.size() < kWriters * kRounds; ++u) {
    for (VertexId v = u + 1; v < graph.num_vertices() &&
                             absent.size() < kWriters * kRounds;
         ++v) {
      if (!graph.HasEdge(u, v)) absent.emplace_back(u, v);
    }
  }
  ASSERT_EQ(absent.size(), kWriters * kRounds);

  GraphCatalog catalog;
  ASSERT_TRUE(
      catalog.AddGraph("caveman-36", graph, EngineOptions(), /*sessions=*/2)
          .ok());
  ServerOptions server_options;
  server_options.workers = kWriters;
  Server server(&catalog, server_options);

  for (std::size_t round = 0; round < kRounds; ++round) {
    std::atomic<bool> go{false};
    std::vector<std::string> responses(kWriters);
    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < kWriters; ++w) {
      const auto [u, v] = absent[round * kWriters + w];
      writers.emplace_back([&, w, u, v] {
        while (!go.load()) std::this_thread::yield();
        responses[w] = server.Call(
            "{\"id\": " + std::to_string(w) +
            ", \"method\": \"mutate\", \"graph\": \"caveman-36\", "
            "\"edits\": \"add " +
            std::to_string(u) + " " + std::to_string(v) + "\"}");
      });
    }
    go.store(true);
    for (std::thread& writer : writers) writer.join();

    const std::uint64_t first = round * kWriters + 1;
    std::vector<bool> seen(kWriters, false);
    for (const std::string& line : responses) {
      auto response = ParseServeResponse(line);
      ASSERT_TRUE(response.ok()) << line;
      ASSERT_TRUE(response.value().ok) << line;
      const std::uint64_t epoch = response.value().epoch;
      ASSERT_GE(epoch, first) << line;
      ASSERT_LT(epoch, first + kWriters) << line;
      EXPECT_FALSE(seen[epoch - first]) << "epoch " << epoch
                                        << " answered twice";
      seen[epoch - first] = true;
      std::uint64_t num_edges = 0;
      ASSERT_TRUE(
          response.value().body.Find("result")->Find("num_edges")->AsUint64(
              &num_edges))
          << line;
      EXPECT_EQ(num_edges, graph.num_edges() + epoch) << line;
    }
  }
}

/// The per-graph counters of one `stats` reply.
struct MemoCounters {
  std::uint64_t memo_entries = 0;
  std::uint64_t memo_invalidated = 0;
  std::uint64_t screened_reads = 0;
  std::uint64_t sp_passes = 0;
  std::uint64_t cache_hits = 0;
};

MemoCounters ReadMemoCounters(Server& server) {
  MemoCounters counters;
  const std::string line =
      server.Call(R"({"method": "stats", "graph": "caveman-36"})");
  auto response = ParseServeResponse(line);
  EXPECT_TRUE(response.ok()) << line;
  if (!response.ok()) return counters;
  const JsonValue* graphs =
      response.value().body.Find("result")->Find("graphs");
  EXPECT_TRUE(graphs != nullptr && graphs->array.size() == 1) << line;
  if (graphs == nullptr || graphs->array.size() != 1) return counters;
  const JsonValue& graph = graphs->array[0];
  const auto read = [&](const char* key, std::uint64_t* out) {
    const JsonValue* field = graph.Find(key);
    EXPECT_TRUE(field != nullptr && field->AsUint64(out)) << key << ": " << line;
  };
  read("memo_entries", &counters.memo_entries);
  read("memo_invalidated", &counters.memo_invalidated);
  read("screened_reads", &counters.screened_reads);
  read("sp_passes", &counters.sp_passes);
  read("cache_hits", &counters.cache_hits);
  return counters;
}

TEST(ServeConcurrencyTest, StatsMemoCountersReconcileWithRequestsIssued) {
  // Requests issued one at a time to a two-session entry reconcile
  // exactly with one engine that runs the same requests on its own memo:
  // the sessions share one memo, so the summed passes and hits, the memo
  // size and the invalidated count all equal that engine's. Counts, not
  // timings, are checked.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddGraph("caveman-36", base.value(), EngineOptions(),
                            /*sessions=*/2)
                  .ok());
  Server server(&catalog, ServerOptions());
  auto reference_memo = std::make_shared<DependencyMemo>();
  BetweennessEngine reference(base.value(), EngineOptions(), reference_memo);

  const auto expect_reconciled = [&](const std::string& after) {
    const MemoCounters got = ReadMemoCounters(server);
    EXPECT_EQ(got.sp_passes, reference.total_sp_passes()) << after;
    EXPECT_EQ(got.cache_hits, reference.dependency_cache_hits()) << after;
    EXPECT_EQ(got.screened_reads, reference.screened_reads()) << after;
    EXPECT_EQ(got.memo_entries, reference_memo->size()) << after;
    EXPECT_EQ(got.memo_invalidated, reference_memo->invalidated_entries())
        << after;
    return got;
  };
  const auto estimate = [&](std::uint64_t seed) {
    const std::string line = server.Call(EstimateLine(seed, seed));
    auto response = ParseServeResponse(line);
    ASSERT_TRUE(response.ok() && response.value().ok) << line;
    EstimateRequest request;
    request.samples = kSamples;
    request.seed = seed;
    ASSERT_TRUE(reference.EstimateMany(kTargets, request).ok());
  };

  const MemoCounters start = expect_reconciled("start");
  EXPECT_EQ(start.sp_passes, 0u);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    estimate(seed);
    expect_reconciled("estimate seed " + std::to_string(seed));
  }
  // A repeat is served wholly from the memo, whichever session takes it.
  const MemoCounters warm = expect_reconciled("warm");
  EXPECT_GT(warm.memo_entries, 0u);
  estimate(1);
  const MemoCounters repeat = expect_reconciled("repeat");
  EXPECT_EQ(repeat.sp_passes, warm.sp_passes);
  EXPECT_GT(repeat.cache_hits, warm.cache_hits);

  const GraphDelta delta = MakeRandomEditScript(base.value(), 3, 0x5747);
  const std::string line = server.Call(
      "{\"id\": 1, \"method\": \"mutate\", \"graph\": \"caveman-36\", "
      "\"edits\": \"" +
      DeltaToText(delta) + "\"}");
  auto response = ParseServeResponse(line);
  ASSERT_TRUE(response.ok() && response.value().ok) << line;
  ASSERT_TRUE(reference.ApplyDelta(delta).ok());
  const MemoCounters mutated = expect_reconciled("mutate");
  EXPECT_EQ(mutated.memo_invalidated,
            warm.memo_entries - mutated.memo_entries);
  estimate(5);
  expect_reconciled("estimate after mutate");
}

TEST(ServeConcurrencyTest, StatsScreenedReadsReconcileOnASmallMemo) {
  // A memo budget below one entry per source makes one-vertex estimates
  // run scoped reads, and zero screens answer some of them without a
  // pass. The sessions share the screens and the per-target miss counts
  // through the memo, so requests issued one at a time still reconcile
  // exactly with one engine on its own memo.
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  EngineOptions options;
  options.dependency_cache_bytes =
      8 * base.value().num_vertices() * (sizeof(double) + sizeof(std::uint32_t));
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddGraph("caveman-36", base.value(), options,
                            /*sessions=*/2)
                  .ok());
  Server server(&catalog, ServerOptions());
  auto reference_memo = std::make_shared<DependencyMemo>();
  BetweennessEngine reference(base.value(), options, reference_memo);

  const auto expect_reconciled = [&](const std::string& after) {
    const MemoCounters got = ReadMemoCounters(server);
    EXPECT_EQ(got.screened_reads, reference.screened_reads()) << after;
    EXPECT_EQ(got.sp_passes, reference.total_sp_passes()) << after;
    EXPECT_EQ(got.cache_hits, reference.dependency_cache_hits()) << after;
    EXPECT_EQ(got.memo_entries, reference_memo->size()) << after;
    EXPECT_EQ(got.memo_invalidated, reference_memo->invalidated_entries())
        << after;
  };
  const auto estimate = [&](VertexId v, std::uint64_t seed) {
    const std::string line = server.Call(
        "{\"id\": " + std::to_string(seed) +
        ", \"method\": \"estimate\", \"graph\": \"caveman-36\", "
        "\"vertices\": [" +
        std::to_string(v) + "], \"samples\": " + std::to_string(kSamples) +
        ", \"seed\": " + std::to_string(seed) + "}");
    auto response = ParseServeResponse(line);
    ASSERT_TRUE(response.ok() && response.value().ok) << line;
    EstimateRequest request;
    request.samples = kSamples;
    request.seed = seed;
    ASSERT_TRUE(reference.EstimateMany({v}, request).ok());
  };

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const VertexId v : kTargets) {
      estimate(v, seed);
      expect_reconciled("estimate of " + std::to_string(v) + " seed " +
                        std::to_string(seed));
    }
  }
  EXPECT_GT(reference.screened_reads(), 0u);

  const GraphDelta delta = MakeRandomEditScript(base.value(), 3, 0x5c4e);
  const std::string line = server.Call(
      "{\"id\": 1, \"method\": \"mutate\", \"graph\": \"caveman-36\", "
      "\"edits\": \"" +
      DeltaToText(delta) + "\"}");
  auto response = ParseServeResponse(line);
  ASSERT_TRUE(response.ok() && response.value().ok) << line;
  ASSERT_TRUE(reference.ApplyDelta(delta).ok());
  EXPECT_EQ(reference_memo->screens(), 0u);
  expect_reconciled("mutate");
  estimate(kTargets.front(), 7);
  expect_reconciled("estimate after mutate");
}

}  // namespace
}  // namespace mhbc::serve
