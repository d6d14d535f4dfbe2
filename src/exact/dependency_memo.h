#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/common.h"

/// \file
/// DependencyMemo — the store of memoized dependency vectors behind one or
/// more DependencyOracles. An oracle alone owns a private memo; the
/// serving catalog builds one memo per graph and hands it to every
/// session, so a pass any session paid for serves all of them.

namespace mhbc {

/// Dependency vectors keyed by source, tagged with the graph epoch they
/// were computed on. An entry is either a whole pass (the vector plus the
/// pass' distances) or a scoped read's scalar: delta_{source.}(target) for
/// one target, with no vectors.
///
/// Entries are immutable and handed out as shared_ptr<const Entry>: a
/// reader that holds one keeps it valid even after another oracle clears
/// the map (bulk eviction) or invalidates it (a graph edit). One mutex
/// guards the map; it is held only for the lookup, the insert, and the
/// per-edit invalidation sweep, never across a pass. Every entry is a
/// deterministic function of (graph, source), so which of two racing
/// inserts wins, and the eviction order under concurrency, change only
/// work accounting, never a served value.
///
/// Zero screens. Beside the entries the memo keeps, per target r, an n-bit
/// set of the sources whose dependency on r is exactly zero (built and
/// read by DependencyOracle's single-target reads), and the count of
/// target-scoped misses each target has paid, which decides when a
/// screen is worth building. Screens and counts are bounded at the entry
/// capacity, each map bulk-cleared when an insert of a new key finds it
/// full; a screen is n bits, under 1/96 of a whole entry. Advance and
/// Sync drop both, because an edit moves distances.
///
/// Epochs. The memo records the epoch its entries belong to. Find and
/// Insert name the caller's epoch and miss (or drop the insert) on a
/// mismatch, so an entry is never served to a graph it was not computed
/// on. Advance moves the memo one epoch forward exactly once: the first
/// oracle to rebind after an edit invalidates and extends the entries,
/// later oracles at the same epoch find the work done. Oracles sharing a
/// memo must therefore apply the same edit sequence (the serving catalog
/// applies every delta to all of its sessions).
class DependencyMemo {
 public:
  /// One memoized pass: the dependency vector plus the pass' distances —
  /// hop distances on unweighted graphs, weighted distances on weighted
  /// ones — kept for the edit-survival test. A scalar entry (a
  /// target-scoped read) leaves the vectors empty and holds
  /// delta_{source.}(target) in `value`; it serves reads of `target` only.
  struct Entry {
    std::vector<double> deps;
    std::vector<std::uint32_t> hops;
    std::vector<double> wdists;
    VertexId target = kInvalidVertex;
    double value = 0.0;

    bool scalar() const { return target != kInvalidVertex; }
    /// True when the entry can answer delta_{source.}(t).
    bool Serves(VertexId t) const { return !scalar() || target == t; }
    /// delta_{source.}(t); requires Serves(t).
    double Dependency(VertexId t) const { return scalar() ? value : deps[t]; }
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// The sources v with delta_{v.}(target) == 0 for one target, one bit
  /// per vertex.
  struct ZeroScreen {
    std::vector<std::uint64_t> bits;

    bool Contains(VertexId v) const { return (bits[v >> 6] >> (v & 63)) & 1; }
  };
  using ScreenPtr = std::shared_ptr<const ZeroScreen>;

  /// Caching stays off until set_capacity(> 0).
  DependencyMemo() = default;

  DependencyMemo(const DependencyMemo&) = delete;
  DependencyMemo& operator=(const DependencyMemo&) = delete;

  /// Holds up to `max_entries` entries (whole or scalar); the map is
  /// bulk-cleared when an insert of a new source finds it full. 0 disables
  /// caching and frees the store.
  void set_capacity(std::size_t max_entries);
  std::size_t capacity() const;

  /// The entry for `source` at graph epoch `epoch`, or null.
  EntryPtr Find(std::uint64_t epoch, VertexId source) const;

  /// Stores `entry` for `source` unless caching is off, `epoch` is not the
  /// memo's epoch, or the source already has a whole entry (a racing
  /// insert stored it first). Any entry replaces a scalar one.
  void Insert(std::uint64_t epoch, VertexId source, EntryPtr entry);

  /// The zero screen of `target` at graph epoch `epoch`, or null.
  ScreenPtr FindScreen(std::uint64_t epoch, VertexId target) const;

  /// Stores `screen` for `target` unless caching is off, `epoch` is not
  /// the memo's epoch, or the target already has one.
  void InsertScreen(std::uint64_t epoch, VertexId target, ScreenPtr screen);

  /// Records one target-scoped miss on `target` and returns the misses
  /// recorded on it before this one (0, recording nothing, when caching
  /// is off or `epoch` is not the memo's epoch).
  std::uint64_t CountScopedMiss(std::uint64_t epoch, VertexId target);

  /// Moves the memo from `from_epoch` to from_epoch + 1 after an edit
  /// batch: screens, miss counts, scalar entries and entries failing
  /// `survives` are dropped (a scalar keeps no distances to test),
  /// survivors are extended to `num_vertices` with the values a fresh
  /// pass on the post-edit graph would store (0 dependency, unreached
  /// distance). A no-op unless the
  /// memo is at `from_epoch`: a sibling oracle already advanced it.
  void Advance(std::uint64_t from_epoch, VertexId num_vertices,
               const std::function<bool(const Entry&)>& survives);

  /// Aligns the memo to a newly created oracle's epoch: an oracle created
  /// after a mutation starts at that epoch, and a memo still behind it
  /// holds entries of an older graph that no live oracle invalidated. It
  /// is cleared (screens and miss counts too) and moved forward, so its
  /// inserts and the next Advance are not skipped.
  void Sync(std::uint64_t epoch);

  /// Entries (whole or scalar) currently held; screens are not entries.
  std::size_t size() const;

  /// Zero screens currently held.
  std::size_t screens() const;

  /// Cumulative entries dropped by Advance and Sync (the selectivity
  /// readout; dropped screens are not counted).
  std::uint64_t invalidated_entries() const;

  /// The graph epoch the held entries belong to.
  std::uint64_t epoch() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t invalidated_entries_ = 0;
  std::unordered_map<VertexId, EntryPtr> entries_;
  std::unordered_map<VertexId, ScreenPtr> screens_;
  std::unordered_map<VertexId, std::uint64_t> scoped_misses_;
};

}  // namespace mhbc
