#include "exact/dependency_memo.h"

#include <utility>

namespace mhbc {

namespace {

/// `values` grown to `n` with `fill`; empty stays empty (the distance
/// vector the entry's graph kind does not use).
template <typename T>
std::vector<T> Extended(const std::vector<T>& values, std::size_t n, T fill) {
  std::vector<T> out;
  if (values.empty()) return out;
  out.reserve(n);
  out.assign(values.begin(), values.end());
  out.resize(n, fill);
  return out;
}

}  // namespace

void DependencyMemo::set_capacity(std::size_t max_entries) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = max_entries;
  if (capacity_ == 0) {
    entries_.clear();
    screens_.clear();
    scoped_misses_.clear();
  }
}

std::size_t DependencyMemo::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

DependencyMemo::EntryPtr DependencyMemo::Find(VertexId source) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(source);
  return it == entries_.end() ? nullptr : it->second;
}

void DependencyMemo::Insert(VertexId source, EntryPtr entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  const auto it = entries_.find(source);
  if (it != entries_.end()) {
    if (it->second->scalar()) it->second = std::move(entry);
    return;
  }
  // Bulk eviction keeps the policy trivial; the memo refills from the live
  // working set within one query's worth of passes.
  if (entries_.size() >= capacity_) entries_.clear();
  entries_.emplace(source, std::move(entry));
}

DependencyMemo::ScreenPtr DependencyMemo::FindScreen(VertexId target) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = screens_.find(target);
  return it == screens_.end() ? nullptr : it->second;
}

void DependencyMemo::InsertScreen(VertexId target, ScreenPtr screen) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0 || screens_.count(target) != 0) return;
  if (screens_.size() >= capacity_) screens_.clear();
  screens_.emplace(target, std::move(screen));
}

std::uint64_t DependencyMemo::CountScopedMiss(VertexId target) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return 0;
  auto it = scoped_misses_.find(target);
  if (it == scoped_misses_.end()) {
    if (scoped_misses_.size() >= capacity_) scoped_misses_.clear();
    it = scoped_misses_.emplace(target, 0).first;
  }
  return it->second++;
}

void DependencyMemo::Advance(
    VertexId num_vertices, const std::function<bool(const Entry&)>& survives) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second->scalar() || !survives(*it->second)) {
      ++invalidated_entries_;
      it = entries_.erase(it);
      continue;
    }
    // Surviving passes never reach an appended vertex: extend with the
    // exact values a fresh pass on the new graph would store. Entries
    // are immutable (a reader may still hold the old one), so the
    // extension is a copy.
    const Entry& old = *it->second;
    if (old.deps.size() < num_vertices) {
      auto grown = std::make_shared<Entry>();
      grown->deps = Extended(old.deps, num_vertices, 0.0);
      grown->hops = Extended(old.hops, num_vertices, kUnreachedDistance);
      grown->wdists = Extended(old.wdists, num_vertices, -1.0);
      it->second = std::move(grown);
    }
    ++it;
  }
  screens_.clear();
  scoped_misses_.clear();
}

std::size_t DependencyMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t DependencyMemo::screens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return screens_.size();
}

std::uint64_t DependencyMemo::invalidated_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return invalidated_entries_;
}

}  // namespace mhbc
