#include "exact/dependency_oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mhbc {

namespace {

/// True when the edit batch provably leaves the pass' shortest-path DAG —
/// and therefore its dependency vector, bit-for-bit — unchanged. `hops`
/// holds the pass' pre-edit hop distances (kUnreachedDistance sentinel for
/// unreached vertices; appended vertices index past the end and read as
/// unreached). Unweighted criterion per edit {u,v}: the DAG is untouched
/// iff dist(s,u) == dist(s,v) — an intra-level edge lies on no shortest
/// path, removing one deletes no DAG edge and inserting one creates none,
/// and two equal *unreached* sentinels mean the edit happens outside the
/// pass' component entirely. Any distance mismatch can change distances,
/// sigma counts, or the level structure, so the pass is dropped. The test
/// is evaluated against the original distances for every edit in the
/// batch, which is sound by induction: each passing edit leaves all
/// distances unchanged, so the stored vector stays valid for the next
/// edit. Vertex appends never touch an existing pass.
bool PassSurvivesEdits(const std::vector<std::uint32_t>& hops,
                       std::span<const GraphEdit> edits, bool directed) {
  const auto dist_of = [&hops](VertexId v) {
    return v < hops.size() ? hops[v] : kUnreachedDistance;
  };
  for (const GraphEdit& edit : edits) {
    if (edit.kind == GraphEdit::Kind::kAddVertex) continue;
    if (directed) {
      // Directed arc u→v: only paths *through* the arc matter, and those
      // enter at u. An unreached u can never feed the arc (insert or
      // remove). A reached u leaves the DAG untouched iff the arc is
      // slack: dist(u)+1 > dist(v) means it lies on no shortest path
      // (remove deletes nothing) and cannot create or tie one (insert
      // adds nothing). dist(u)+1 <= dist(v) — including an unreached v,
      // which an insert would newly reach — can change distances or
      // sigma, so the pass drops. The comparison is overflow-safe: u is
      // reached, so dist(u)+1 fits.
      const std::uint32_t du = dist_of(edit.u);
      if (du == kUnreachedDistance) continue;
      if (static_cast<std::uint64_t>(du) + 1 <=
          static_cast<std::uint64_t>(dist_of(edit.v))) {
        return false;
      }
      continue;
    }
    if (dist_of(edit.u) != dist_of(edit.v)) return false;
  }
  return true;
}

/// Weighted companion of PassSurvivesEdits (see the class comment for the
/// full soundness argument). `wdists` holds the pass' pre-edit weighted
/// distances (-1 sentinel for unreached; appended vertices index past the
/// end and read as unreached); `delta` is the engine still bound to the
/// *pre-edit* graph, consulted for the canonical tie epsilon and the
/// per-vertex minimum incident weights the wave rule depends on. Per edit
/// {u,v,w}: both endpoints unreached survives (the edit cannot touch the
/// pass' component); one reached endpoint drops (an inserted edge extends
/// the component, and an undirected edge with one reached endpoint always
/// made the other reachable, so this only arises on insert); both reached
/// survives iff the edge is slack both ways under the canonical tie rule
/// AND w cannot change either endpoint's minimum incident weight. Sound by
/// induction over the batch: each passing edit changes no distance, no
/// tie, and no minw, so the stored vectors (and the old engine's minw
/// table) stay valid for the next edit.
bool WeightedPassSurvivesEdits(const std::vector<double>& wdists,
                               std::span<const GraphEdit> edits,
                               const DeltaSpd& delta, bool directed) {
  const auto wdist_of = [&wdists](VertexId v) {
    return v < wdists.size() ? wdists[v] : -1.0;
  };
  const double eps = delta.options().tie_epsilon;
  const auto equal = [eps](double a, double b) {
    if (a == b) return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= eps * scale;
  };
  for (const GraphEdit& edit : edits) {
    if (edit.kind == GraphEdit::Kind::kAddVertex) continue;
    const double du = wdist_of(edit.u);
    const double dv = wdist_of(edit.v);
    const bool u_reached = du >= 0.0;
    const bool v_reached = dv >= 0.0;
    const double w = edit.weight;
    if (directed) {
      // Directed arc u→v: paths through it enter at u, so an unreached u
      // makes the edit invisible to the pass. A reached u with an
      // unreached v drops (an insert newly reaches v; a removal from a
      // reached u to an unreached v cannot exist). Both reached survives
      // iff the arc is slack one way — du + w strictly above dv and not
      // within the canonical tie window — and w cannot change v's
      // minimum *incoming* weight, the only minw the wave rule reads for
      // relaxations into v (min_incident_weight is the min in-weight on
      // directed graphs).
      if (!u_reached) continue;
      if (!v_reached) return false;
      if (du + w < dv || equal(du + w, dv)) return false;
      const double minw_v = delta.min_incident_weight(edit.v);
      if (edit.kind == GraphEdit::Kind::kAddEdge) {
        if (w < minw_v) return false;
      } else {
        if (w <= minw_v) return false;
      }
      continue;
    }
    if (!u_reached && !v_reached) continue;
    if (u_reached != v_reached) return false;
    // Slack both ways: on no shortest path, creates none, ties nothing.
    if (du + w < dv || equal(du + w, dv)) return false;
    if (dv + w < du || equal(dv + w, du)) return false;
    // minw gate: the wave geometry consults min incident weights, so the
    // edit must leave both endpoints' minimum unchanged. An insert needs
    // w >= minw (it cannot become the new minimum); a removal needs
    // w > minw (at w == minw it may have *been* the minimum).
    const double minw_u = delta.min_incident_weight(edit.u);
    const double minw_v = delta.min_incident_weight(edit.v);
    if (edit.kind == GraphEdit::Kind::kAddEdge) {
      if (w < minw_u || w < minw_v) return false;
    } else {
      if (w <= minw_u || w <= minw_v) return false;
    }
  }
  return true;
}

}  // namespace

DependencyOracle::DependencyOracle(const CsrGraph& graph, SpdOptions spd,
                                   std::shared_ptr<DependencyMemo> memo)
    : graph_(&graph), spd_(spd), accumulator_(graph), memo_(std::move(memo)) {
  BindKernel(graph);
}

void DependencyOracle::BindKernel(const CsrGraph& graph) {
  bfs_.reset();
  delta_.reset();
  if (graph.weighted()) {
    delta_ = std::make_unique<DeltaSpd>(graph, spd_);
  } else {
    bfs_ = std::make_unique<BfsSpd>(graph, spd_);
  }
}

void DependencyOracle::set_cache_capacity(std::size_t max_entries) {
  if (!memo_) {
    if (max_entries == 0) return;
    memo_ = std::make_shared<DependencyMemo>();
  }
  memo_->set_capacity(max_entries);
}

void DependencyOracle::ApplyGraphDelta(const CsrGraph& new_graph,
                                       std::span<const GraphEdit> edits) {
  if (memo_) {
    // The pre-edit graph's kind comes from the kernel still bound to it:
    // graph_ may be new_graph itself, already rewritten. A weightedness
    // flip (emptying a weighted graph) re-keys every distance; drop
    // everything. Edits never change directedness.
    const bool weighted = delta_ != nullptr;
    const bool flip = weighted != new_graph.weighted();
    const bool directed = new_graph.directed();
    memo_->Advance(new_graph.num_vertices(),
                   [&](const DependencyMemo::Entry& entry) {
                     if (edits.empty()) return true;
                     if (flip) return false;
                     return weighted
                                ? WeightedPassSurvivesEdits(
                                      entry.wdists, edits, *delta_, directed)
                                : PassSurvivesEdits(entry.hops, edits,
                                                    directed);
                   });
  }
  pinned_.reset();
  graph_ = &new_graph;
  accumulator_ = DependencyAccumulator(new_graph);
  BindKernel(new_graph);
}

const ShortestPathDag& DependencyOracle::RunPass(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  ++num_passes_;
  if (delta_) {
    delta_->Run(source);
    return delta_->dag();
  }
  bfs_->Run(source);
  return bfs_->dag();
}

const ShortestPathDag& DependencyOracle::RunDistancePass(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  if (delta_) return RunPass(source);
  ++num_passes_;
  bfs_->RunDistances(source);
  return bfs_->dag();
}

DependencyMemo::ScreenPtr DependencyOracle::BuildScreen(VertexId target) {
  const VertexId n = graph_->num_vertices();
  auto screen = std::make_shared<DependencyMemo::ZeroScreen>();
  screen->bits.assign((static_cast<std::size_t>(n) + 63) / 64,
                      ~std::uint64_t{0});
  screen_build_passes_ += graph_->degree(target) + 1;
  const std::vector<std::uint32_t> from_target =
      RunDistancePass(target).dist;
  for (VertexId w : graph_->neighbors(target)) {
    const ShortestPathDag& dag = RunDistancePass(w);
    for (VertexId v : dag.order) {
      // w is a child of target in v's DAG: v depends on target.
      const std::uint32_t d = from_target[v];
      if (d != kUnreachedDistance && dag.dist[v] == d + 1) {
        screen->bits[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
      }
    }
  }
  screen->bits[target >> 6] |= std::uint64_t{1} << (target & 63);
  return screen;
}

const std::vector<double>& DependencyOracle::Dependencies(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  if (memo_) {
    DependencyMemo::EntryPtr hit = memo_->Find(source);
    if (hit && !hit->scalar()) {
      // An entry of another graph means a sibling skipped a rebind.
      MHBC_DCHECK(hit->deps.size() == graph_->num_vertices());
      ++cache_hits_;
      pinned_ = std::move(hit);
      return pinned_->deps;
    }
  }
  const ShortestPathDag& dag = RunPass(source);
  const std::vector<double>& deps = accumulator_.Accumulate(dag);
  if (memo_ && memo_->capacity() > 0) {
    // Each pass keeps its distances for the edit-survival test
    // (ApplyGraphDelta): hop distances unweighted, weighted distances
    // weighted.
    auto entry = std::make_shared<DependencyMemo::Entry>();
    entry->deps = deps;
    if (graph_->weighted()) {
      entry->wdists = dag.wdist;
    } else {
      entry->hops = dag.dist;
    }
    memo_->Insert(source, std::move(entry));
  }
  return deps;
}

double DependencyOracle::Dependency(VertexId source, VertexId target) {
  MHBC_DCHECK(target < graph_->num_vertices());
  if (!scoped_reads_ || !bfs_) return Dependencies(source)[target];
  // Zero screens are cross-query reuse: undirected graphs with a memo.
  const bool screens = memo_ && !graph_->directed();
  DependencyMemo::ScreenPtr screen;
  if (screens) {
    screen = memo_->FindScreen(target);
    if (screen && screen->Contains(source)) {
      ++screened_reads_;
      return 0.0;
    }
  }
  if (memo_) {
    const DependencyMemo::EntryPtr hit = memo_->Find(source);
    if (hit && hit->Serves(target)) {
      MHBC_DCHECK(hit->scalar() || hit->deps.size() == graph_->num_vertices());
      ++cache_hits_;
      return hit->Dependency(target);
    }
  }
  // Ski rental: the screen costs deg(target) + 1 passes, so build it once
  // the target has paid that many misses.
  if (screens && !screen &&
      memo_->CountScopedMiss(target) > graph_->degree(target)) {
    screen = BuildScreen(target);
    memo_->InsertScreen(target, screen);
    if (screen->Contains(source)) {
      ++screened_reads_;
      return 0.0;
    }
  }
  ++num_passes_;
  bfs_->Run(source, target);
  const double value = accumulator_.Accumulate(bfs_->dag(), target)[target];
  if (memo_ && memo_->capacity() > 0) {
    auto entry = std::make_shared<DependencyMemo::Entry>();
    entry->target = target;
    entry->value = value;
    memo_->Insert(source, std::move(entry));
  }
  return value;
}

}  // namespace mhbc
