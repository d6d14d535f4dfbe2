#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exact/dependency_memo.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"
#include "sp/dependency.h"

/// \file
/// The per-sample work unit shared by all samplers: a single-source
/// shortest-path pass plus dependency accumulation, exposing
/// delta_{source.}(target). The oracle is the library's one pass owner:
/// every sampler and the exact Brandes driver run their passes through it.

namespace mhbc {

/// Computes dependency scores delta_{v.}(r) on demand.
///
/// This is exactly the quantity the paper's acceptance ratio (Eq. 6/17)
/// needs: "it can be done in O(|E|) time for unweighted graphs and in
/// O(|E| + |V| log |V|) for weighted graphs" (§4.1). The oracle owns the
/// one SPD kernel (BfsSpd unweighted, DeltaSpd weighted) and counts every
/// pass it runs, so harnesses report work in pass units — the fair
/// comparison currency across samplers — from this one counter.
///
/// One pass from source v yields the dependency of v on *every* target at
/// once, so a single oracle shared by several estimators (or by one
/// estimator serving several target vertices — see centrality/engine.h)
/// can memoize whole dependency vectors and serve repeated sources without
/// re-running the pass. The vectors live in a DependencyMemo
/// (exact/dependency_memo.h): private to the oracle by default (opt-in via
/// set_cache_capacity()), or passed in at construction and shared with
/// other oracles on the same graph — the serving catalog gives all
/// sessions of a graph one memo. Cached answers are bit-identical to
/// recomputed ones (the passes are deterministic), so caching never
/// changes estimates, only work. Pass and hit counts stay per oracle.
///
/// Scoped reads. A caller that will read one target per pass and cannot
/// expect whole vectors to be reused (the engine's single-target calls on
/// a memo too small for every source) turns on set_scoped_reads. A
/// Dependency() miss then runs a target-scoped BFS pass and sweep
/// (BfsSpd::Run with a scope vertex), which record and sweep only the DAG
/// below the target, and memoizes the answer as a scalar entry. The value
/// is bit-identical to a full pass'. Dependencies() and weighted passes
/// always run in full, and a full pass replaces a scalar entry.
///
/// Zero screens. On an undirected graph with a memo, scoped reads of a
/// target r that keeps missing also build r's zero screen Z_r: the set
/// of sources v with delta_{v.}(r) == 0. A read of v in Z_r returns +0.0
/// with no pass, no sweep and no memo entry. The set is exact: r's
/// children in v's DAG are the neighbors w with d(v,w) = d(v,r) + 1, and
/// delta_{v.}(r) sums a strictly positive term over them, so it is zero
/// iff r has no child — and then the sweep never writes r's slot, which
/// keeps its +0.0 reset value. The source itself (whose slot the sweep
/// zeroes) and unreachable sources have no child either. Distances are
/// symmetric, so one distance-only pass from r and one from each
/// neighbor settle every v: v is outside Z_r iff d(w,v) = d(r,v) + 1 for
/// some neighbor w at a finite d(r,v); r itself is in Z_r. The build
/// costs deg(r) + 1 counted passes, so it runs ski-rental style, once r
/// has paid deg(r) + 1 scoped misses (counted in the memo, shared by its
/// oracles): a target that never benefits pays at most twice its
/// unscreened passes. Screens live in the memo beside the entries, and an
/// edit drops them. Directed and weighted graphs, and oracles without a
/// memo (or with caching off), build none.
///
/// Graph mutation. The oracle supports rebinding for the dynamic-graph
/// path (BetweennessEngine::ApplyDelta and Rebind): ApplyGraphDelta
/// points the oracle at the post-edit graph and drops *only* the memoized
/// passes whose BFS trees an edit touches. For unweighted graphs each
/// cached pass keeps its hop-distance vector, and an edit {u,v} provably
/// leaves the pass' whole shortest-path DAG — distances, sigma, canonical
/// order, and therefore the dependency vector bit-for-bit — unchanged iff
/// dist(s,u) == dist(s,v) (an intra-level or fully-unreached edge lies on
/// no shortest path, and inserting one creates none). Weighted passes keep
/// their weighted-distance vector instead and survive an edit {u,v,w} iff
/// (a) both endpoints were unreached (the edit happens outside the pass'
/// component), or (b) both were reached, the edge is *slack both ways* —
/// wdist(s,u) + w exceeds wdist(s,v) by more than the canonical tie
/// epsilon and vice versa, so it lies on no shortest path, creates none,
/// and creates or breaks no tie — and w leaves both endpoints' minimum
/// incident weight unchanged (>= minw on insert, > minw on remove). The
/// minw gate is what makes the test sound for DeltaSpd's canonical waves:
/// wave membership — and with it the settle order, the level slices, and
/// every floating-point regrouping downstream — is a function of distances
/// and per-vertex minimum incident weights alone (the bucket width drifts
/// with the mean edge weight, but outputs are invariant under it, see
/// sp/delta_spd.h). Passes failing their test for any edit in the batch
/// are dropped; survivors are extended with unreached sentinels for
/// appended vertices and served exactly as a fresh pass on the new graph
/// would compute them. Oracles sharing a memo rebind to every batch
/// before any of them reads again; the first one's DependencyMemo::Advance
/// drops and extends, and the others' find nothing left to do.
class DependencyOracle {
 public:
  /// The graph must outlive the oracle. Weighted graphs automatically use
  /// the canonical-wave delta-stepping engine, unweighted graphs the BFS
  /// engine — both configured by `spd` (α/β, thread count,
  /// grain, and bucket width change only the work per pass — the
  /// dependency vectors are bit-identical across all settings, see
  /// sp/bfs_spd.h and sp/delta_spd.h). A non-null `memo` is shared with
  /// the other oracles it was given to. Precondition: they are bound to
  /// `graph` too and all rebind to each edit batch before any of them
  /// reads again (see DependencyMemo); an oracle that reads while lagging
  /// a batch is served entries of another graph, not extra misses.
  explicit DependencyOracle(const CsrGraph& graph, SpdOptions spd = SpdOptions(),
                            std::shared_ptr<DependencyMemo> memo = nullptr);

  /// Runs one counted shortest-path pass from `source` and returns its DAG
  /// (valid until the next pass). Neither reads nor fills the memo and
  /// leaves the accumulator alone: this is the entry point for samplers
  /// that consume the DAG itself (path backtracks, scaled sweeps, distance
  /// tables) rather than a dependency vector.
  const ShortestPathDag& RunPass(VertexId source);

  /// Runs one counted pass from `source` for a caller that reads only its
  /// distances (and sigma/order): a distance-only BFS pass, which records
  /// no predecessor, on unweighted graphs, and RunPass on weighted ones.
  const ShortestPathDag& RunDistancePass(VertexId source);

  /// Returns delta_{source.}(target): a zero-screen answer (scoped reads
  /// only, see the class comment), a memo hit (a whole entry, or a scalar
  /// entry for `target`) or one pass from `source` — target-scoped under
  /// set_scoped_reads on an unweighted graph, full otherwise.
  double Dependency(VertexId source, VertexId target);

  /// Runs one pass from `source` (or serves the memoized vector) and
  /// returns the whole dependency vector delta_{source.}(.) (valid until
  /// the next call: the oracle pins a served memo entry, so another
  /// oracle clearing a shared memo cannot free it). A miss is RunPass
  /// plus one accumulation.
  const std::vector<double>& Dependencies(VertexId source);

  /// Scopes later Dependency() misses to their target (see the class
  /// comment). Off by default. A work knob: values are bit-identical
  /// either way, only the pass cost and what the memo keeps change.
  void set_scoped_reads(bool scoped) { scoped_reads_ = scoped; }

  /// Enables memoization of up to `max_entries` dependency vectors in the
  /// oracle's memo, creating a private one if none was passed in (memory:
  /// max_entries * n doubles, plus n u32 hop distances per entry on
  /// unweighted graphs or n doubles of weighted distances on weighted
  /// ones; the cache is bulk-evicted when full). The distance vectors are
  /// kept unconditionally — a +50-100% per-entry cost even for
  /// never-mutated workloads — because the passes memoized *before* the
  /// first edit are exactly the warm state ApplyGraphDelta exists to
  /// preserve; retaining distances lazily would force that first edit to
  /// drop everything. 0 (the default) disables caching and frees the
  /// store (for every oracle sharing it).
  void set_cache_capacity(std::size_t max_entries);

  /// Rebinds the oracle to `new_graph` — the graph produced by applying
  /// the resolved edit batch `edits` (DynamicGraph::Apply output, with
  /// kRemoveEdge weights filled in) to the currently-bound graph. It may
  /// be the bound graph object itself, already rewritten by the edit: the
  /// survival tests read only the entries' distances and the tables of
  /// the kernel bound before the edit. Memoized passes the edits provably
  /// do not touch survive (see class comment); the SPD engines and
  /// accumulator are rebuilt against the new graph. `new_graph` must
  /// outlive the oracle like the construction graph did.
  void ApplyGraphDelta(const CsrGraph& new_graph,
                       std::span<const GraphEdit> edits);

  /// Number of shortest-path passes executed so far (RunPass calls plus
  /// memo misses; cache hits cost no pass).
  std::uint64_t num_passes() const { return num_passes_; }

  /// Number of Dependencies() calls served from the memo without a pass.
  std::uint64_t cache_hits() const { return cache_hits_; }

  /// Number of Dependency() reads a zero screen answered without a pass
  /// (not counted in cache_hits()).
  std::uint64_t screened_reads() const { return screened_reads_; }

  /// Distance-only passes run to build zero screens (counted in
  /// num_passes() too).
  std::uint64_t screen_build_passes() const { return screen_build_passes_; }

  /// Memoized passes currently held (by the memo, shared or not).
  std::size_t cached_entries() const { return memo_ ? memo_->size() : 0; }

  /// Cumulative memo entries dropped by ApplyGraphDelta edits (the
  /// selectivity readout: low relative to cached_entries() means most
  /// passes survive each edit batch). A shared memo counts each drop once.
  std::uint64_t invalidated_entries() const {
    return memo_ ? memo_->invalidated_entries() : 0;
  }

  const CsrGraph& graph() const { return *graph_; }

 private:
  /// Builds the one SPD kernel for `graph` (DeltaSpd weighted, BfsSpd
  /// unweighted), dropping the previous one.
  void BindKernel(const CsrGraph& graph);

  /// Builds the zero screen of `target` from deg(target) + 1 counted
  /// distance-only passes (see the class comment).
  DependencyMemo::ScreenPtr BuildScreen(VertexId target);

  const CsrGraph* graph_;
  SpdOptions spd_;
  std::unique_ptr<BfsSpd> bfs_;
  std::unique_ptr<DeltaSpd> delta_;
  DependencyAccumulator accumulator_;
  std::uint64_t num_passes_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t screened_reads_ = 0;
  std::uint64_t screen_build_passes_ = 0;
  bool scoped_reads_ = false;
  /// Null until set_cache_capacity(> 0) unless one was passed in.
  std::shared_ptr<DependencyMemo> memo_;
  /// The memo entry Dependencies() last served.
  DependencyMemo::EntryPtr pinned_;
};

}  // namespace mhbc
