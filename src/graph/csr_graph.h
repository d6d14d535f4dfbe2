#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/common.h"

/// \file
/// Immutable compressed-sparse-row graph.
///
/// The paper's model (§2): undirected, loop-free, no multi-edges, optionally
/// positive edge weights. The per-sample cost of every sampler is one
/// truncated Brandes pass over this structure, so adjacency is stored as two
/// flat arrays (offsets + neighbor ids) for sequential scanning.
///
/// Beyond the paper, the model also covers *directed* graphs (web graphs,
/// citation networks): a directed graph stores the out-CSR in the same two
/// arrays plus an in-CSR transpose (built once at construction) that the
/// SPD kernels' backward machinery — predecessor recording, bottom-up BFS,
/// dependency sweeps — traverses. On undirected graphs the in-CSR accessors
/// alias the out-CSR arrays, so direction-agnostic code reads `in_*` for
/// every backward walk and pays nothing in the undirected case.
///
/// Storage comes in two flavors behind one interface: an *owning* graph
/// (built by GraphBuilder, arrays held in private vectors) and a *view*
/// over externally-owned arrays (WrapExternal), which is what lets the
/// binary snapshot loader (graph/snapshot.h) serve an mmap'ed file without
/// copying it. The accessors are identical and branch-free either way.
/// The transpose of a directed graph is always owned — a directed snapshot
/// is zero-copy for the out-CSR only. It is built eagerly (not lazily on
/// first use): a lazy build would need synchronization under the concurrent
/// readers the serving layer runs, and raw synchronization outside
/// util/thread_pool is banned by the determinism lint.

namespace mhbc {

/// Immutable graph in CSR form, undirected (the default) or directed.
///
/// Undirected: each edge {u,v} is stored twice (u→v and v→u), adjacency
/// holds 2m entries, and the in-CSR accessors alias the out-CSR. Directed:
/// adjacency holds one entry per arc u→v (m entries) and the in-CSR is a
/// materialized transpose. Construction goes through GraphBuilder, which
/// sorts, deduplicates, and validates — or through WrapExternal for
/// pre-validated zero-copy views.
class CsrGraph {
 public:
  /// Empty graph.
  CsrGraph() = default;

  CsrGraph(const CsrGraph& other) { CopyFrom(other); }
  CsrGraph& operator=(const CsrGraph& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  CsrGraph(CsrGraph&& other) noexcept { MoveFrom(std::move(other)); }
  CsrGraph& operator=(CsrGraph&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  /// Wraps externally-owned CSR arrays as a read-only graph *without
  /// copying them*. The arrays must satisfy the GraphBuilder invariants
  /// (offsets ascending with offsets[0] == 0 and offsets[n] ==
  /// neighbors.size(), per-vertex neighbor slices sorted, both directions
  /// of every undirected edge present, weights empty or parallel to
  /// neighbors) and must stay alive and unchanged for the lifetime of the
  /// returned graph **and every copy of it** — copies of a view are again
  /// views. With `directed` the arrays are the out-CSR (one entry per arc)
  /// and the transpose is built into owned storage here, so a directed
  /// view is zero-copy for the out-CSR only. The snapshot loader is the
  /// intended caller; anything else should go through GraphBuilder.
  static CsrGraph WrapExternal(std::span<const EdgeId> offsets,
                               std::span<const VertexId> neighbors,
                               std::span<const double> weights,
                               std::string name, bool directed = false);

  /// Owning companion of WrapExternal: adopts pre-validated CSR arrays
  /// verbatim — same invariants as WrapExternal, but the graph takes
  /// ownership, so there is no lifetime contract to honor. Intended for
  /// the snapshot loader's buffered path; anything constructing a graph
  /// from scratch should go through GraphBuilder.
  static CsrGraph AdoptVerbatim(std::vector<EdgeId> offsets,
                                std::vector<VertexId> neighbors,
                                std::vector<double> weights, std::string name,
                                bool directed = false);

  /// True when this graph borrows externally-owned arrays (WrapExternal)
  /// rather than owning its storage; see WrapExternal for the lifetime
  /// contract.
  bool is_external_view() const { return external_; }

  /// True when edges are directed arcs u→v rather than undirected pairs.
  bool directed() const { return directed_; }

  /// Number of vertices.
  VertexId num_vertices() const {
    return static_cast<VertexId>(num_offsets_ == 0 ? 0 : num_offsets_ - 1);
  }

  /// Number of edges m: undirected pairs {u,v} (adjacency holds 2m
  /// entries) or directed arcs u→v (adjacency holds m entries).
  std::uint64_t num_edges() const {
    return directed_ ? num_adjacency_ : num_adjacency_ / 2;
  }

  /// Out-degree of v (== degree on undirected graphs).
  std::uint32_t degree(VertexId v) const {
    MHBC_DCHECK(v < num_vertices());
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// In-degree of v; aliases degree(v) on undirected graphs.
  std::uint32_t in_degree(VertexId v) const {
    MHBC_DCHECK(v < num_vertices());
    return static_cast<std::uint32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Out-neighbors of v, sorted ascending.
  std::span<const VertexId> neighbors(VertexId v) const {
    MHBC_DCHECK(v < num_vertices());
    return {neighbors_ + offsets_[v], neighbors_ + offsets_[v + 1]};
  }

  /// In-neighbors of v (u with an arc u→v), sorted ascending; aliases
  /// neighbors(v) on undirected graphs. Every backward walk — predecessor
  /// enumeration, bottom-up BFS, dependency re-derivation — reads this.
  std::span<const VertexId> in_neighbors(VertexId v) const {
    MHBC_DCHECK(v < num_vertices());
    return {in_neighbors_ + in_offsets_[v], in_neighbors_ + in_offsets_[v + 1]};
  }

  /// Weights parallel to neighbors(v); empty span when the graph is
  /// unweighted.
  std::span<const double> weights(VertexId v) const {
    MHBC_DCHECK(v < num_vertices());
    if (!weighted()) return {};
    return {weights_ + offsets_[v], weights_ + offsets_[v + 1]};
  }

  /// Weights parallel to in_neighbors(v); empty span when unweighted.
  std::span<const double> in_weights(VertexId v) const {
    MHBC_DCHECK(v < num_vertices());
    if (!weighted()) return {};
    return {in_weights_ + in_offsets_[v], in_weights_ + in_offsets_[v + 1]};
  }

  /// True when edges carry positive weights.
  bool weighted() const { return weights_ != nullptr; }

  /// True if the arc u→v exists (binary search over u's sorted
  /// out-neighbors); on undirected graphs this is edge {u,v}.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Weight of arc u→v; requires the arc to exist. Unweighted graphs
  /// report 1.0 for every edge.
  double EdgeWeight(VertexId u, VertexId v) const;

  /// Optional human-readable name (dataset registry fills this in).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// The raw out-CSR arrays, for serialization (graph/snapshot.h).
  /// offsets has num_vertices()+1 entries, adjacency 2m (undirected) or m
  /// (directed), edge_weights parallel to adjacency or empty.
  std::span<const EdgeId> raw_offsets() const { return {offsets_, num_offsets_}; }
  std::span<const VertexId> raw_adjacency() const {
    return {neighbors_, num_adjacency_};
  }
  std::span<const double> raw_weights() const {
    return weighted() ? std::span<const double>{weights_, num_adjacency_}
                      : std::span<const double>{};
  }

  /// The raw in-CSR (transpose) arrays; alias the out-CSR when undirected.
  std::span<const EdgeId> raw_in_offsets() const {
    return {in_offsets_, num_offsets_};
  }
  std::span<const VertexId> raw_in_adjacency() const {
    return {in_neighbors_, num_adjacency_};
  }

  /// All edges as the builder would take them: (u, v, w) with u < v on
  /// undirected graphs, every arc u→v on directed graphs.
  struct Edge {
    VertexId u;
    VertexId v;
    double weight;
  };
  std::vector<Edge> CollectEdges() const;

 private:
  friend class GraphBuilder;

  /// Points the accessor pointers at the owned vectors (after the builder
  /// fills them in).
  void BindOwned();
  /// Builds the in-CSR transpose (directed) or aliases the in-CSR
  /// pointers to the out-CSR (undirected). Requires the out accessors to
  /// be bound first.
  void BindIn();
  void CopyFrom(const CsrGraph& other);
  void MoveFrom(CsrGraph&& other) noexcept;

  // Owned storage; empty for external views.
  std::vector<EdgeId> offsets_store_;      // size n+1
  std::vector<VertexId> neighbors_store_;  // adjacency, sorted per vertex
  std::vector<double> weights_store_;      // parallel to adjacency or empty

  // Transpose storage. Directed graphs own it unconditionally (even
  // external views); undirected graphs leave it empty and alias the
  // accessor pointers below to the out-CSR.
  std::vector<EdgeId> in_offsets_store_;
  std::vector<VertexId> in_neighbors_store_;
  std::vector<double> in_weights_store_;

  // The arrays the accessors read — either the owned vectors above or
  // externally-owned memory (external_ == true).
  const EdgeId* offsets_ = nullptr;
  const VertexId* neighbors_ = nullptr;
  const double* weights_ = nullptr;  // null when unweighted
  const EdgeId* in_offsets_ = nullptr;
  const VertexId* in_neighbors_ = nullptr;
  const double* in_weights_ = nullptr;  // null when unweighted
  std::size_t num_offsets_ = 0;
  std::size_t num_adjacency_ = 0;
  bool external_ = false;
  bool directed_ = false;

  std::string name_;
};

}  // namespace mhbc
