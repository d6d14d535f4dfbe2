#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "util/status.h"

/// \file
/// Edit batches over a CsrGraph.
///
/// Every layer of the serving stack (SPD kernels, samplers, the engine)
/// consumes a frozen CsrGraph, and the MH estimators are exactly the family
/// that can cheaply re-estimate after small graph edits instead of
/// recomputing from scratch. DynamicGraph is the mutation substrate for
/// that streaming-update scenario: Apply validates a GraphDelta against the
/// current CSR plus a batch-local map of the edges the batch touches, then
/// writes the post-edit CSR in one merge pass (each vertex's sorted slice
/// merged with its sorted changed half-edges). There is no second
/// representation to keep in sync; the kernels only ever read flat CSR
/// arrays, so the post-edit graph is built exactly once per batch.
///
/// The engine applies a GraphDelta here and re-targets its kernels at
/// Csr() — see BetweennessEngine::ApplyDelta for the cache-invalidation
/// story.

namespace mhbc {

/// One edit operation inside a GraphDelta.
struct GraphEdit {
  enum class Kind : std::uint8_t {
    /// Insert edge {u,v} (must not exist). On a directed base the edit is
    /// the single arc u→v; the reciprocal v→u stays independent.
    kAddEdge,
    /// Delete edge {u,v} (must exist); the arc u→v on a directed base.
    kRemoveEdge,
    kAddVertex,  ///< append one isolated vertex (u, v unused)
  };
  Kind kind = Kind::kAddEdge;
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  /// kAddEdge: the weight to insert (1.0 on unweighted graphs). On the
  /// *resolved* edit list DynamicGraph::Apply returns, kRemoveEdge entries
  /// carry the weight the removed edge had — the invalidation test in
  /// DependencyOracle needs it without consulting the pre-edit graph.
  double weight = 1.0;
};

/// A batched edit script: an ordered list of edge/vertex edits applied
/// atomically (all ops validate against the sequentially-edited state, or
/// none apply). Build programmatically via the fluent adders or parse one
/// from the text format (ParseEditScript; spec in docs/formats.md).
class GraphDelta {
 public:
  /// Appends "insert undirected edge {u,v} with weight w". Weights other
  /// than 1.0 are only valid against weighted graphs.
  GraphDelta& AddEdge(VertexId u, VertexId v, double weight = 1.0);

  /// Appends "delete undirected edge {u,v}".
  GraphDelta& RemoveEdge(VertexId u, VertexId v);

  /// Appends `count` "append one isolated vertex" ops. New vertices get
  /// the next dense ids; later ops in the same delta may reference them.
  GraphDelta& AddVertices(std::uint32_t count = 1);

  bool empty() const { return edits_.empty(); }
  std::size_t size() const { return edits_.size(); }
  const std::vector<GraphEdit>& edits() const { return edits_; }
  void clear() { edits_.clear(); }

 private:
  std::vector<GraphEdit> edits_;
};

/// Most vertices one parsed edit script may append, summed over its
/// `addvertex` lines. GraphDelta stores one edit per appended vertex, so
/// without a cap a single short line could ask for gigabytes before Apply
/// ever runs.
inline constexpr std::uint32_t kMaxScriptAddedVertices = 1u << 20;

/// Parses the text edit-script format (docs/formats.md):
///   add <u> <v> [w]   |   remove <u> <v>   |   addvertex [count]
/// plus blank lines and '#' comments. Errors name the offending line; a
/// script appending more than kMaxScriptAddedVertices vertices is rejected.
StatusOr<GraphDelta> ParseEditScript(const std::string& path);

/// ParseEditScript over in-memory text; `where` labels error messages.
StatusOr<GraphDelta> ParseEditScriptText(const std::string& text,
                                         const std::string& where);

/// Writes `delta` in the ParseEditScript text format (round-trips).
Status WriteEditScript(const GraphDelta& delta, const std::string& path);

/// A CsrGraph that edit batches replace wholesale. See file comment.
///
/// Like the rest of the graph layer this type is thread-compatible, not
/// thread-safe: concurrent readers are fine between mutations, but Apply
/// requires exclusive access.
class DynamicGraph {
 public:
  /// Takes the starting graph by value (move in to avoid the copy). A
  /// *view* graph (CsrGraph::WrapExternal) is accepted; its external arrays
  /// must stay alive until the first successful Apply replaces them with
  /// owned storage.
  explicit DynamicGraph(CsrGraph graph);

  /// Applies `delta` atomically: every op is validated against the
  /// sequentially-edited state first (duplicate inserts, missing removals,
  /// self-loops, out-of-range ids, non-finite or non-positive weights,
  /// non-1.0 weights on an unweighted graph all fail with
  /// InvalidArgument), and on any failure the graph is left untouched. On
  /// success Csr() is the post-edit graph (owned pre-edit arrays are
  /// freed, so every span into them dangles) and, when `resolved` is
  /// non-null, it receives the applied ops with kRemoveEdge weights filled
  /// in from the pre-edit state (see GraphEdit::weight).
  Status Apply(const GraphDelta& delta,
               std::vector<GraphEdit>* resolved = nullptr);

  /// The current graph. The reference stays valid across edits; its
  /// contents are replaced by every successful Apply.
  const CsrGraph& Csr() const { return graph_; }

 private:
  CsrGraph graph_;
};

/// Generates a deterministic random edit script of `num_edits` ops that is
/// valid against `graph`: a mix of edge removals (uniform over existing
/// edges), edge insertions (uniform over non-edges), and occasional
/// vertex-append-plus-attachment, all internally consistent in sequence.
/// Shared by the equivalence test harness and bench_e21 so the two sweep
/// the same edit distribution. Graphs with fewer than 2 vertices get pure
/// vertex appends.
GraphDelta MakeRandomEditScript(const CsrGraph& graph, std::size_t num_edits,
                                std::uint64_t seed);

}  // namespace mhbc
