#pragma once

#include <span>
#include <vector>

#include "util/common.h"

/// \file
/// Shared single-source shortest-path DAG (SPD) representation.
///
/// The paper (§2.1) calls the DAG of all shortest paths rooted at a source
/// the SPD. One SPD pass plus one dependency accumulation is the unit of
/// work of every sampler in this library, so the representation is a set of
/// flat arrays reused across passes (no per-pass allocation).

namespace mhbc {

/// Default relative tie window for weighted passes: two floating-point
/// path lengths within this relative distance count as the same shortest
/// distance (the canonical tie rule both weighted engines share — see
/// SpdOptions::tie_epsilon).
inline constexpr double kDefaultTieEpsilon = 1e-12;

/// Tuning knobs for the SPD engines (BfsSpd for unweighted graphs,
/// DeltaSpd for weighted). Every knob except tie_epsilon — the α/β
/// thresholds, the thread count, the parallel grain, the bucket width —
/// changes only the work a pass does: dist,
/// sigma, the canonical order, and every dependency vector downstream are
/// bit-identical across all settings (see BfsSpd and DeltaSpd for why).
/// tie_epsilon is an *accuracy* knob (it defines which weighted paths
/// count as shortest) and therefore part of the determinism key.
struct SpdOptions {
  /// Intra-pass parallelism: the number of threads one SPD pass uses for
  /// frontier-parallel level steps (the dependency sweep is sequential).
  /// 0 and 1 both mean a sequential pass. A wider pass costs more CPU and
  /// wins wall time only on large graphs, so it is an explicit latency
  /// knob; no engine widens it on its own. Results are bit-identical at
  /// every value.
  unsigned num_threads = 1;
  /// Minimum per-level work of a pass (examined edges of a BFS level or a
  /// DeltaSpd wave) before the level fans out across threads; smaller
  /// levels run the sequential step, whose output is identical.
  /// The threshold is a function of the level only — never of the thread
  /// count — so the parallel/sequential choice cannot break determinism.
  /// 0 forces every level through the parallel path (used by tests).
  std::uint64_t parallel_grain = 2048;
  /// Per-level direction test (Beamer's CTB, recalibrated): a level runs
  /// bottom-up when m_f * alpha > m_u, where m_f is the degree sum of the
  /// current frontier (edges a top-down step examines) and m_u the degree
  /// sum of still-unvisited vertices (edges a bottom-up step examines).
  /// alpha is the measured per-edge discount of the bottom-up loop — a
  /// sequential ascending scan with no discovery bookkeeping, which finds
  /// its level already in order — so the test reads "bottom-up is the
  /// cheaper way to build this level". Exact sigma counting cannot
  /// early-exit the parent scan (Beamer's reachability-only BFS can, hence
  /// his much larger alpha = 14); the default here is the bench_e20 sweep
  /// optimum across the registry graphs, measured while top-down steps
  /// still sorted every level. alpha <= 0 disables bottom-up entirely:
  /// every level then runs top-down.
  double alpha = 3.0;
  /// Secondary bottom-up exit (Beamer's CBT): also return to top-down once
  /// the frontier is shrinking and has fewer than n / beta vertices.
  /// beta <= 0 disables this exit (the profit-test exit still applies).
  double beta = 24.0;
  /// Weighted passes only — the canonical tie rule: two path lengths a, b
  /// are the same shortest distance when a == b or |a - b| <=
  /// tie_epsilon * max(|a|, |b|); 0 requires exact FP equality. A parent u
  /// becomes an SPD predecessor of v exactly when its candidate
  /// wdist(u) + w(u,v) ties wdist(v) under this rule and u settles before
  /// v stops accepting candidates (DeltaSpd settles whole waves, so a tie
  /// that lands within tie_epsilon of the wave-settle bound is dropped —
  /// deterministically, at every thread count). Must be >= 0 (validated by
  /// both weighted engines) and should stay well below the smallest
  /// relative weight difference in the graph.
  double tie_epsilon = kDefaultTieEpsilon;
  /// Weighted passes only — the delta-stepping bucket width. 0 (default)
  /// picks the canonical width: the graph's mean edge weight, a pure
  /// function of the graph and never of the thread count. The width is a
  /// speed knob: DeltaSpd's wave structure — and with it every output bit
  /// — is invariant under it (waves are defined by distances and per-vertex
  /// minimum incident weights alone; buckets only organize the scan).
  double delta_width = 0.0;
};

/// Result arrays of one single-source pass. Arrays are indexed by vertex id
/// and sized to the graph; entries for unreached vertices hold
/// kUnreachedDistance / 0 sigma.
struct ShortestPathDag {
  /// Hop distance from the source (unweighted passes).
  std::vector<std::uint32_t> dist;
  /// Weighted distance from the source (weighted passes only).
  std::vector<double> wdist;
  /// Number of shortest source->v paths.
  std::vector<SigmaCount> sigma;
  /// Vertices in settle order, source first — always a topological order
  /// of the SPD (every parent precedes every child), which is what the
  /// backward dependency sweep needs. Doubles as the touched-list used to
  /// reset state in O(|reached|). Unweighted passes store the *canonical*
  /// order — ascending vertex id within each level, independent of
  /// traversal direction; DeltaSpd weighted passes store *its* canonical
  /// order — ascending (wdist, id) within each settle wave — so the
  /// backward sweep regroups identically at every thread count.
  std::vector<VertexId> order;
  /// Per-level slices of `order`:
  /// order[level_offsets[l] .. level_offsets[l+1]) holds the vertices of
  /// level l — the BFS frontier at hop distance l for unweighted passes,
  /// the l-th settle wave for DeltaSpd weighted passes. Either way no SPD
  /// edge connects two vertices of the same level, so the backward sweep
  /// walks levels deepest-first without re-deriving the structure. Empty
  /// for heap-order (Dijkstra) passes, which fall back to reverse settle
  /// order.
  std::vector<std::size_t> level_offsets;
  /// Explicit SPD predecessor (parent) lists in CSR-capacity layout:
  /// vertex v's parents occupy
  /// pred_storage[pred_begin[v] .. pred_begin[v] + pred_count[v]).
  /// pred_begin points at the graph's own *in*-CSR offsets (a parent of v
  /// reaches it over an in-edge, so a parent list can never outgrow the
  /// in-degree; on undirected graphs the in-CSR aliases the out-CSR), so
  /// it stays valid exactly as long as the
  /// graph the engine is bound to — no per-engine copy. Every engine fills
  /// it: BfsSpd with parents in ascending id (top-down and bottom-up steps
  /// record the same sequence, which keeps the accumulation regrouping
  /// independent of the traversal direction), the weighted engines with
  /// parents in their canonical settle order.
  const EdgeId* pred_begin = nullptr;
  std::vector<std::uint32_t> pred_count;
  std::vector<VertexId> pred_storage;
  /// The source of the pass.
  VertexId source = kInvalidVertex;
  /// True if the pass used edge weights.
  bool weighted = false;

  /// Number of vertices reached (including the source).
  std::size_t num_reached() const { return order.size(); }

  /// Number of BFS levels (0 when level offsets are absent).
  std::size_t num_levels() const {
    return level_offsets.empty() ? 0 : level_offsets.size() - 1;
  }

  /// Parents of v in the SPD — the single parent enumeration every
  /// backward sweep walks.
  std::span<const VertexId> predecessors(VertexId v) const {
    MHBC_DCHECK(v < pred_count.size());
    return {pred_storage.data() + pred_begin[v],
            pred_storage.data() + pred_begin[v] + pred_count[v]};
  }
};

/// Visits every reached vertex in the fixed backward-sweep order the
/// dependency accumulators use: levels deepest-first, ascending vertex id
/// within a level when the DAG carries level offsets (BFS levels, DeltaSpd
/// waves), falling back to reverse settle order (heap-order Dijkstra DAGs). This single definition is what
/// pins the floating-point regrouping of every backward sweep in the
/// library, so it must not fork per caller. A positive `stop_level` ends
/// the walk after level stop_level (levels below it are not visited); it
/// needs level offsets. A target-scoped sweep stops at d(s, r) + 1, the
/// shallowest level that can still feed delta_s(r).
template <typename Visit>
void ForEachDeepestFirst(const ShortestPathDag& dag, Visit&& visit,
                         std::size_t stop_level = 0) {
  MHBC_DCHECK(stop_level == 0 || !dag.level_offsets.empty());
  if (!dag.level_offsets.empty()) {
    for (std::size_t level = dag.num_levels(); level-- > stop_level;) {
      const std::size_t end = dag.level_offsets[level + 1];
      for (std::size_t i = dag.level_offsets[level]; i < end; ++i) {
        visit(dag.order[i]);
      }
    }
  } else {
    for (auto it = dag.order.rbegin(); it != dag.order.rend(); ++it) {
      visit(*it);
    }
  }
}

}  // namespace mhbc
