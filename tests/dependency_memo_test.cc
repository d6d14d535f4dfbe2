// The dependency memo shared by several oracles / engines: a pass warmed
// by one engine is a hit on another, selective invalidation runs once per
// edit batch however many engines rebind to it, a served entry stays valid
// after another oracle clears the map, and an engine whose oracle is first
// built after a mutation serves the memo and matches a cold engine bit for
// bit.

#include "exact/dependency_memo.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "centrality/engine.h"
#include "datasets/registry.h"
#include "exact/dependency_oracle.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"

namespace mhbc {
namespace {

constexpr std::uint64_t kSamples = 200;

EstimateRequest MhRequest(std::uint64_t seed) {
  EstimateRequest request;
  request.samples = kSamples;
  request.seed = seed;
  return request;
}

void ExpectSameStatistics(const EstimateReport& got,
                          const EstimateReport& want) {
  EXPECT_EQ(got.vertex, want.vertex);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.std_error, want.std_error);
  EXPECT_EQ(got.ci_half_width, want.ci_half_width);
  EXPECT_EQ(got.ess, want.ess);
  EXPECT_EQ(got.acceptance_rate, want.acceptance_rate);
  EXPECT_EQ(got.samples_used, want.samples_used);
  EXPECT_EQ(got.converged, want.converged);
}

/// A chain of edit scripts and the graph after each.
struct DeltaChain {
  std::vector<GraphDelta> deltas;
  std::vector<CsrGraph> snapshots;  ///< snapshots[e] = graph at epoch e
};

/// `head` followed by `random_tail` random three-edit scripts.
DeltaChain MakeChain(const CsrGraph& base, std::vector<GraphDelta> head,
                     std::size_t random_tail, std::uint64_t seed) {
  DeltaChain chain;
  DynamicGraph dyn(base);
  chain.snapshots.push_back(dyn.Csr());
  for (std::size_t i = 0; i < head.size() + random_tail; ++i) {
    const GraphDelta delta = i < head.size()
                                 ? head[i]
                                 : MakeRandomEditScript(dyn.Csr(), 3, seed + i);
    EXPECT_TRUE(dyn.Apply(delta).ok());
    chain.deltas.push_back(delta);
    chain.snapshots.push_back(dyn.Csr());
  }
  return chain;
}

TEST(DependencyMemoTest, AdvanceIsIdempotentForARepeatedBatch) {
  DependencyMemo memo;
  auto entry = std::make_shared<DependencyMemo::Entry>();
  entry->deps = {1.0, 2.0};
  memo.Insert(1, entry);
  EXPECT_EQ(memo.size(), 0u);  // capacity 0: caching off

  memo.set_capacity(4);
  memo.Insert(1, entry);
  auto scalar = std::make_shared<DependencyMemo::Entry>();
  scalar->target = 0;
  scalar->value = 0.5;
  memo.Insert(2, scalar);
  memo.InsertScreen(0, std::make_shared<DependencyMemo::ZeroScreen>());
  EXPECT_EQ(memo.CountScopedMiss(0), 0u);
  ASSERT_NE(memo.Find(1), nullptr);
  ASSERT_EQ(memo.size(), 2u);

  // Every oracle sharing the memo advances it with the same batch. The
  // first call drops the scalar, the screen and the miss count, and
  // extends the survivor to the new vertex count with a fresh pass'
  // values.
  const auto keep_all = [](const DependencyMemo::Entry&) { return true; };
  memo.Advance(3, keep_all);
  EXPECT_EQ(memo.invalidated_entries(), 1u);
  const DependencyMemo::EntryPtr extended = memo.Find(1);
  ASSERT_NE(extended, nullptr);
  EXPECT_EQ(extended->deps, (std::vector<double>{1.0, 2.0, 0.0}));
  EXPECT_EQ(memo.Find(2), nullptr);
  EXPECT_EQ(memo.FindScreen(0), nullptr);
  EXPECT_EQ(entry->deps.size(), 2u);  // a held entry is never mutated

  // The second call drops, extends and counts nothing.
  memo.Advance(3, keep_all);
  EXPECT_EQ(memo.invalidated_entries(), 1u);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.Find(1), extended);
  EXPECT_EQ(extended->deps.size(), 3u);

  memo.Advance(3, [](const DependencyMemo::Entry&) { return false; });
  EXPECT_EQ(memo.invalidated_entries(), 2u);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(DependencyMemoTest, ServedEntryOutlivesAnotherOraclesEviction) {
  const CsrGraph g = MakeBarabasiAlbert(60, 2, 5);
  auto memo = std::make_shared<DependencyMemo>();
  DependencyOracle writer(g, SpdOptions(), memo);
  DependencyOracle reader(g, SpdOptions(), memo);
  writer.set_cache_capacity(1);
  DependencyOracle fresh(g);
  const std::vector<double> want = fresh.Dependencies(0);

  writer.Dependencies(0);
  const std::vector<double>& served = reader.Dependencies(0);
  EXPECT_EQ(reader.num_passes(), 0u);
  EXPECT_EQ(reader.cache_hits(), 1u);
  // The memo is full, so this insert clears it: the reader's vector is
  // pinned and must still read correctly (ASan catches a dangling one).
  writer.Dependencies(1);
  EXPECT_EQ(memo->Find(0), nullptr);
  EXPECT_EQ(served, want);
}

TEST(DependencyMemoTest, PassWarmedByOneEngineIsAHitOnAnother) {
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  auto memo = std::make_shared<DependencyMemo>();
  BetweennessEngine a(base.value(), EngineOptions(), memo);
  BetweennessEngine b(base.value(), EngineOptions(), memo);
  auto warm = a.Estimate(8, MhRequest(41));
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm.value().sp_passes, 0u);

  auto served = b.Estimate(8, MhRequest(41));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().sp_passes, 0u);
  EXPECT_TRUE(served.value().cache_hit);
  EXPECT_EQ(b.total_sp_passes(), 0u);
  ExpectSameStatistics(served.value(), warm.value());
}

TEST(DependencyMemoTest, InvalidationRunsOncePerMutation) {
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  const DeltaChain chain = MakeChain(base.value(), {}, 4, 0x1d0);
  const std::vector<VertexId> targets = {0, 8, 17};

  // Three sessions on one memo, each warmed by its own query, against one
  // engine that runs all three queries on a private memo: the memo holds
  // the same sources either way, so one invalidation per mutation drops
  // exactly what the single engine drops.
  auto shared = std::make_shared<DependencyMemo>();
  auto single_memo = std::make_shared<DependencyMemo>();
  std::vector<std::unique_ptr<BetweennessEngine>> sessions;
  BetweennessEngine single(base.value(), EngineOptions(), single_memo);
  for (std::size_t s = 0; s < targets.size(); ++s) {
    sessions.push_back(std::make_unique<BetweennessEngine>(
        base.value(), EngineOptions(), shared));
    ASSERT_TRUE(sessions[s]->Estimate(targets[s], MhRequest(7 + s)).ok());
    ASSERT_TRUE(single.Estimate(targets[s], MhRequest(7 + s)).ok());
  }
  ASSERT_EQ(shared->size(), single_memo->size());
  ASSERT_GT(shared->size(), 0u);

  for (std::size_t e = 0; e < chain.deltas.size(); ++e) {
    for (auto& session : sessions) {
      ASSERT_TRUE(session->ApplyDelta(chain.deltas[e]).ok());
    }
    ASSERT_TRUE(single.ApplyDelta(chain.deltas[e]).ok());
    EXPECT_EQ(shared->invalidated_entries(),
              single_memo->invalidated_entries())
        << "epoch " << e + 1;
    EXPECT_EQ(shared->size(), single_memo->size());
  }
  EXPECT_GT(shared->invalidated_entries(), 0u);

  // The survivors serve every session bit-identically to a cold engine.
  BetweennessEngine cold(chain.snapshots.back());
  for (std::size_t s = 0; s < targets.size(); ++s) {
    auto got = sessions[s]->Estimate(targets[s], MhRequest(7 + s));
    auto want = cold.Estimate(targets[s], MhRequest(7 + s));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ExpectSameStatistics(got.value(), want.value());
  }
}

TEST(DependencyMemoTest, SessionIdleUntilAfterAMutationMatchesColdEngine) {
  auto base = MakeDataset("caveman-36");
  ASSERT_TRUE(base.ok());
  // The first edit removes an edge inside one clique, which leaves every
  // pass from outside its two endpoints intact, and appends a vertex, so
  // the survivors are extended; random scripts follow.
  ASSERT_TRUE(base.value().HasEdge(3, 4));
  GraphDelta local;
  local.RemoveEdge(3, 4).AddVertices(1);
  const DeltaChain chain = MakeChain(base.value(), {local}, 2, 0x1d1e);
  const EstimateRequest request = MhRequest(99);
  const auto cold_at = [&](std::size_t epoch) {
    BetweennessEngine cold(chain.snapshots[epoch]);
    auto report = cold.Estimate(17, request);
    EXPECT_TRUE(report.ok());
    return report.value();
  };

  // Case 1: `busy` warms the memo; `idle` builds its oracle only after
  // the first mutation. It must serve the passes the edit left alone, and
  // it alone rebinds first at the next mutation, so its invalidation must
  // run there.
  {
    auto memo = std::make_shared<DependencyMemo>();
    BetweennessEngine busy(base.value(), EngineOptions(), memo);
    BetweennessEngine idle(base.value(), EngineOptions(), memo);
    ASSERT_TRUE(busy.Estimate(17, request).ok());
    ASSERT_TRUE(busy.ApplyDelta(chain.deltas[0]).ok());
    ASSERT_TRUE(idle.ApplyDelta(chain.deltas[0]).ok());
    auto late = idle.Estimate(17, request);
    ASSERT_TRUE(late.ok());
    ExpectSameStatistics(late.value(), cold_at(1));
    EXPECT_TRUE(late.value().cache_hit);
    EXPECT_LT(late.value().sp_passes, cold_at(1).sp_passes);
    for (std::size_t e = 1; e < chain.deltas.size(); ++e) {
      ASSERT_TRUE(idle.ApplyDelta(chain.deltas[e]).ok());
      ASSERT_TRUE(busy.ApplyDelta(chain.deltas[e]).ok());
      auto from_idle = idle.Estimate(17, request);
      auto from_busy = busy.Estimate(17, request);
      ASSERT_TRUE(from_idle.ok());
      ASSERT_TRUE(from_busy.ok());
      ExpectSameStatistics(from_idle.value(), cold_at(e + 1));
      ExpectSameStatistics(from_busy.value(), cold_at(e + 1));
    }
  }

  // Case 2: no engine had an oracle before the first mutation, so the
  // memo was never advanced; the first oracle is built on the edited
  // graph, and the next mutation's invalidation must still run.
  {
    auto memo = std::make_shared<DependencyMemo>();
    BetweennessEngine a(base.value(), EngineOptions(), memo);
    BetweennessEngine b(base.value(), EngineOptions(), memo);
    ASSERT_TRUE(a.ApplyDelta(chain.deltas[0]).ok());
    ASSERT_TRUE(b.ApplyDelta(chain.deltas[0]).ok());
    auto first = b.Estimate(17, request);
    ASSERT_TRUE(first.ok());
    ExpectSameStatistics(first.value(), cold_at(1));
    ASSERT_TRUE(a.ApplyDelta(chain.deltas[1]).ok());
    ASSERT_TRUE(b.ApplyDelta(chain.deltas[1]).ok());
    auto second = a.Estimate(17, request);
    ASSERT_TRUE(second.ok());
    ExpectSameStatistics(second.value(), cold_at(2));
  }
}

TEST(DependencyMemoTest, EngineMutatedBeforeItsFirstQueryMemoizes) {
  const CsrGraph base = MakeBarabasiAlbert(2000, 3, 7);
  GraphDelta grow;
  grow.AddVertices(1);
  const DeltaChain chain = MakeChain(base, {grow}, 0, 0);
  EstimateRequest request = MhRequest(3);
  request.kind = EstimatorKind::kMhRaoBlackwell;

  // The engine's memo is created after the edit, by its first query: the
  // second query must be served from what the first one paid for.
  BetweennessEngine engine(base);
  ASSERT_TRUE(engine.ApplyDelta(chain.deltas[0]).ok());
  BetweennessEngine cold(chain.snapshots[1]);
  std::uint64_t passes = 0;
  for (const VertexId r : {VertexId{10}, VertexId{11}}) {
    auto got = engine.Estimate(r, request);
    auto want = cold.Estimate(r, request);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ExpectSameStatistics(got.value(), want.value());
    passes += got.value().sp_passes;
  }
  EXPECT_EQ(passes, cold.total_sp_passes());
  EXPECT_GT(engine.dependency_cache_hits(), 0u);
  EXPECT_LT(engine.total_sp_passes(), 2 * (kSamples + 1));
}

}  // namespace
}  // namespace mhbc
