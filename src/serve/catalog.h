#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "exact/dependency_memo.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "util/status.h"

/// \file
/// GraphCatalog — named graphs with warm engine-session pools and the
/// read/write epoch scheme behind mhbc_serve.
///
/// A BetweennessEngine is thread-compatible, not thread-safe, so the unit
/// of concurrency is one engine per in-flight reader: each catalog entry
/// owns a fixed pool of engines ("sessions") built on the same graph with
/// the same options, and a reader checks one out through an RAII
/// ReadLease. Warm state is the point of the pool. The sessions serve one
/// graph object, the entry's DynamicGraph, and share one DependencyMemo
/// (exact/dependency_memo.h), so a pass any session paid for serves every
/// later request on the entry, whichever session takes it; each engine's
/// whole-graph products (exact scores, RK credit vector) persist across
/// the requests that session serves.
///
/// Mutation installs atomically under a writer-preferred guard: Mutate()
/// blocks new readers, drains the in-flight ones (waits until every
/// session is back in the pool), applies the GraphDelta once to the
/// entry's graph, rebinds every session to it (BetweennessEngine::Rebind)
/// and advances the entry epoch. No session reads between the first
/// rebind and the last, which is what the shared memo needs: the first
/// rebind invalidates it, the others find nothing left to drop. Because
/// the engine's mutation contract makes post-edit reports bit-identical
/// to a cold engine on the post-edit graph, every session leaves the
/// critical section bit-equivalent: a reader can never observe a
/// half-installed delta, and two concurrent readers at the same epoch get
/// bit-identical statistical report fields no matter which pooled session
/// served them. tests/serve_concurrency_test.cc holds this to the bit.
///
/// The catalog itself is fixed at startup (register every graph before
/// serving begins); only the per-entry session state is synchronized.

namespace mhbc::serve {

class GraphEntry;

/// RAII checkout of one pooled engine. While a lease is live its engine
/// is exclusively yours and the entry's epoch cannot advance. Leases are
/// movable; destruction (or Release) returns the session to the pool and
/// wakes waiting readers/writers.
class ReadLease {
 public:
  ReadLease() = default;
  ReadLease(ReadLease&& other) noexcept;
  ReadLease& operator=(ReadLease&& other) noexcept;
  ~ReadLease();

  ReadLease(const ReadLease&) = delete;
  ReadLease& operator=(const ReadLease&) = delete;

  bool valid() const { return engine_ != nullptr; }
  BetweennessEngine& engine() const { return *engine_; }
  /// The entry epoch at checkout time — constant for the lease's life.
  std::uint64_t epoch() const { return epoch_; }

  /// Returns the session early (idempotent).
  void Release();

 private:
  friend class GraphEntry;
  ReadLease(GraphEntry* entry, BetweennessEngine* engine, std::uint64_t epoch)
      : entry_(entry), engine_(engine), epoch_(epoch) {}

  GraphEntry* entry_ = nullptr;
  BetweennessEngine* engine_ = nullptr;
  std::uint64_t epoch_ = 0;
};

/// Point-in-time counters for the `stats` method and tests.
struct GraphEntryStats {
  std::uint64_t epoch = 0;
  std::size_t sessions = 0;
  std::size_t sessions_free = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t mutations_applied = 0;
  VertexId num_vertices = 0;
  /// Undirected pairs, or arcs when `directed`.
  std::uint64_t num_edges = 0;
  /// Directedness of the served graph (fixed at registration).
  bool directed = false;
  /// Vectors held by the entry's shared dependency memo.
  std::size_t memo_entries = 0;
  /// Memo entries dropped by mutations, each counted once.
  std::uint64_t memo_invalidated = 0;
  /// Shortest-path passes, memo hits and zero-screen reads (answered
  /// without a pass, see DependencyOracle) summed over the sessions, as of
  /// each session's last return to the pool (a leased session's current
  /// request is not counted yet).
  std::uint64_t sp_passes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t screened_reads = 0;
};

/// One named graph: the owned graph plus its session pool, their shared
/// dependency memo, and the epoch guard. Pinned in memory (catalog
/// entries live behind unique_ptr).
class GraphEntry {
 public:
  /// Builds `sessions` engines over the owned `graph`, all on one
  /// dependency memo. `sessions` must be >= 1.
  GraphEntry(std::string name, CsrGraph graph, const EngineOptions& options,
             std::size_t sessions);

  GraphEntry(const GraphEntry&) = delete;
  GraphEntry& operator=(const GraphEntry&) = delete;

  const std::string& name() const { return name_; }

  /// Blocks until a session is free and no writer is active or waiting
  /// (writer preference keeps a mutation from starving behind a steady
  /// reader stream), then checks it out.
  ReadLease AcquireRead();

  /// Drains readers, applies `delta` to the entry's graph, rebinds every
  /// pooled session to it, advances the epoch, and returns the entry's
  /// stats as this call installed them (read before the guard reopens, so
  /// a concurrent mutation cannot swap in its epoch or shape).
  /// DynamicGraph::Apply is atomic, so an invalid delta returns
  /// InvalidArgument with the graph, every session and the epoch
  /// unchanged. An empty delta is a successful no-op that keeps the epoch.
  StatusOr<GraphEntryStats> Mutate(const GraphDelta& delta);

  GraphEntryStats Stats() const;

 private:
  friend class ReadLease;
  void ReturnSession(BetweennessEngine* engine);
  /// Stats() body; the caller holds mu_.
  GraphEntryStats StatsLocked() const;

  /// A session's work counters as of its last return to the pool.
  struct SessionCounters {
    std::uint64_t sp_passes = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t screened_reads = 0;
  };

  const std::string name_;
  /// Every session serves graph_.Csr(), a reference that stays valid
  /// across edits.
  DynamicGraph graph_;
  const std::shared_ptr<DependencyMemo> memo_;
  std::vector<std::unique_ptr<BetweennessEngine>> sessions_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<BetweennessEngine*> free_;  ///< checkout stack
  std::vector<SessionCounters> counters_;  ///< parallel to sessions_
  std::size_t writers_waiting_ = 0;
  bool writer_active_ = false;
  std::uint64_t epoch_ = 0;  ///< also the count of mutations applied
  std::uint64_t reads_served_ = 0;
  /// Shape of the served graph, refreshed by Mutate next to epoch_ so
  /// Stats() never reads graph_ while a writer edits it.
  VertexId num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  const bool directed_;
};

/// The daemon's name -> GraphEntry map. Populate before serving starts;
/// lookups after that are read-only and need no synchronization.
class GraphCatalog {
 public:
  /// Registers a graph under `name` with a pool of `sessions` engines.
  /// Duplicate names fail with FailedPrecondition.
  Status AddGraph(const std::string& name, CsrGraph graph,
                  const EngineOptions& options, std::size_t sessions);

  /// Null when `name` is not registered.
  GraphEntry* Find(const std::string& name) const;

  /// Registered names in lexicographic order.
  std::vector<std::string> Names() const;

  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, std::unique_ptr<GraphEntry>> entries_;
};

}  // namespace mhbc::serve
