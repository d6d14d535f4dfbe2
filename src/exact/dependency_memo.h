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

/// Dependency vectors keyed by source. An entry is either a whole pass
/// (the vector plus the pass' distances) or a scoped read's scalar:
/// delta_{source.}(target) for one target, with no vectors.
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
/// full; a screen is n bits, under 1/96 of a whole entry. Advance drops
/// both, because an edit moves distances.
///
/// Edits. The memo holds entries of one graph, the one its oracles are
/// bound to. Oracles sharing a memo serve the same graph and rebind to
/// every edit batch before any of them reads again (the serving
/// catalog's GraphEntry::Mutate guarantees this for its sessions). Each
/// rebinding oracle calls Advance with the same batch; the first call
/// drops and extends the entries, and every later one finds nothing to
/// drop or extend, because survivors pass the same test again and already
/// have the new vertex count. So the memo needs no epoch.
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

  /// The entry for `source`, or null.
  EntryPtr Find(VertexId source) const;

  /// Stores `entry` for `source` unless caching is off or the source
  /// already has a whole entry (a racing insert stored it first). Any
  /// entry replaces a scalar one.
  void Insert(VertexId source, EntryPtr entry);

  /// The zero screen of `target`, or null.
  ScreenPtr FindScreen(VertexId target) const;

  /// Stores `screen` for `target` unless caching is off or the target
  /// already has one.
  void InsertScreen(VertexId target, ScreenPtr screen);

  /// Records one target-scoped miss on `target` and returns the misses
  /// recorded on it before this one (0, recording nothing, when caching
  /// is off).
  std::uint64_t CountScopedMiss(VertexId target);

  /// Moves the memo across an edit batch: screens, miss counts, scalar
  /// entries and entries failing `survives` are dropped (a scalar keeps
  /// no distances to test), survivors are extended to `num_vertices`
  /// with the values a fresh pass on the post-edit graph would store (0
  /// dependency, unreached distance). Idempotent for a repeated batch
  /// (see the class comment): a second call drops, extends and counts
  /// nothing.
  void Advance(VertexId num_vertices,
               const std::function<bool(const Entry&)>& survives);

  /// Entries (whole or scalar) currently held; screens are not entries.
  std::size_t size() const;

  /// Zero screens currently held.
  std::size_t screens() const;

  /// Cumulative entries dropped by Advance (the selectivity readout;
  /// dropped screens are not counted).
  std::uint64_t invalidated_entries() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_ = 0;
  std::uint64_t invalidated_entries_ = 0;
  std::unordered_map<VertexId, EntryPtr> entries_;
  std::unordered_map<VertexId, ScreenPtr> screens_;
  std::unordered_map<VertexId, std::uint64_t> scoped_misses_;
};

}  // namespace mhbc
