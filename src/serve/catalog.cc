#include "serve/catalog.h"

#include <algorithm>
#include <utility>

namespace mhbc::serve {

// ---------------------------------------------------------------------------
// ReadLease
// ---------------------------------------------------------------------------

ReadLease::ReadLease(ReadLease&& other) noexcept
    : entry_(other.entry_), engine_(other.engine_), epoch_(other.epoch_) {
  other.entry_ = nullptr;
  other.engine_ = nullptr;
}

ReadLease& ReadLease::operator=(ReadLease&& other) noexcept {
  if (this != &other) {
    Release();
    entry_ = other.entry_;
    engine_ = other.engine_;
    epoch_ = other.epoch_;
    other.entry_ = nullptr;
    other.engine_ = nullptr;
  }
  return *this;
}

ReadLease::~ReadLease() { Release(); }

void ReadLease::Release() {
  if (engine_ != nullptr && entry_ != nullptr) {
    entry_->ReturnSession(engine_);
  }
  entry_ = nullptr;
  engine_ = nullptr;
}

// ---------------------------------------------------------------------------
// GraphEntry
// ---------------------------------------------------------------------------

GraphEntry::GraphEntry(std::string name, CsrGraph graph,
                       const EngineOptions& options, std::size_t sessions)
    : name_(std::move(name)),
      graph_(std::move(graph)),
      memo_(std::make_shared<DependencyMemo>()),
      num_vertices_(graph_.Csr().num_vertices()),
      num_edges_(graph_.Csr().num_edges()),
      directed_(graph_.Csr().directed()) {
  if (sessions == 0) sessions = 1;
  sessions_.reserve(sessions);
  free_.reserve(sessions);
  counters_.resize(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    sessions_.push_back(
        std::make_unique<BetweennessEngine>(graph_.Csr(), options, memo_));
    free_.push_back(sessions_.back().get());
  }
}

ReadLease GraphEntry::AcquireRead() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return !writer_active_ && writers_waiting_ == 0 && !free_.empty();
  });
  BetweennessEngine* engine = free_.back();
  free_.pop_back();
  ++reads_served_;
  return ReadLease(this, engine, epoch_);
}

void GraphEntry::ReturnSession(BetweennessEngine* engine) {
  // The returning lease still owns the engine: its counters are read
  // before it is back in the pool, where another reader may take it.
  const SessionCounters counters{engine->total_sp_passes(),
                                 engine->dependency_cache_hits(),
                                 engine->screened_reads()};
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(
        sessions_.begin(), sessions_.end(),
        [engine](const auto& session) { return session.get() == engine; });
    counters_[static_cast<std::size_t>(it - sessions_.begin())] = counters;
    free_.push_back(engine);
  }
  cv_.notify_all();
}

StatusOr<GraphEntryStats> GraphEntry::Mutate(const GraphDelta& delta) {
  std::unique_lock<std::mutex> lock(mu_);
  ++writers_waiting_;
  cv_.wait(lock, [this] {
    return !writer_active_ && free_.size() == sessions_.size();
  });
  --writers_waiting_;
  writer_active_ = true;
  lock.unlock();

  // Exclusive: every session is parked in free_ and writer_active_ keeps
  // readers (and other writers) out, so the graph and the engines can be
  // edited without the lock. Apply is the validation gate: it is atomic,
  // so an invalid delta leaves the graph, and so every session, untouched.
  // Every session is rebound before any reads again, as the shared memo
  // requires.
  std::vector<GraphEdit> resolved;
  const Status applied = graph_.Apply(delta, &resolved);
  const bool edited = applied.ok() && !delta.empty();
  if (edited) {
    for (const auto& session : sessions_) {
      session->Rebind(graph_.Csr(), resolved);
    }
  }

  lock.lock();
  if (edited) {  // an empty delta keeps the epoch
    ++epoch_;
    num_vertices_ = graph_.Csr().num_vertices();
    num_edges_ = graph_.Csr().num_edges();
  }
  const GraphEntryStats installed = StatsLocked();
  writer_active_ = false;
  lock.unlock();
  cv_.notify_all();
  if (!applied.ok()) return applied;
  return installed;
}

GraphEntryStats GraphEntry::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

GraphEntryStats GraphEntry::StatsLocked() const {
  GraphEntryStats stats;
  stats.epoch = epoch_;
  stats.sessions = sessions_.size();
  stats.sessions_free = free_.size();
  stats.reads_served = reads_served_;
  stats.mutations_applied = epoch_;
  stats.num_vertices = num_vertices_;
  stats.num_edges = num_edges_;
  stats.directed = directed_;
  stats.memo_entries = memo_->size();
  stats.memo_invalidated = memo_->invalidated_entries();
  for (const SessionCounters& counters : counters_) {
    stats.sp_passes += counters.sp_passes;
    stats.cache_hits += counters.cache_hits;
    stats.screened_reads += counters.screened_reads;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// GraphCatalog
// ---------------------------------------------------------------------------

Status GraphCatalog::AddGraph(const std::string& name, CsrGraph graph,
                              const EngineOptions& options,
                              std::size_t sessions) {
  if (name.empty()) {
    return Status::InvalidArgument("catalog graph name must be non-empty");
  }
  if (entries_.count(name) != 0) {
    return Status::FailedPrecondition("catalog already holds a graph named '" +
                                      name + "'");
  }
  entries_.emplace(name, std::make_unique<GraphEntry>(name, std::move(graph),
                                                      options, sessions));
  return Status::Ok();
}

GraphEntry* GraphCatalog::Find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

std::vector<std::string> GraphCatalog::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace mhbc::serve
