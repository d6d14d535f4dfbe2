#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "graph/csr_graph.h"
#include "util/status.h"

/// \file
/// Text edge-list I/O in the SNAP dataset format.
///
/// The paper's evaluation line of work uses SNAP networks distributed as
/// whitespace-separated edge lists with '#' comment lines and arbitrary
/// (non-dense, possibly directed-duplicated) vertex ids. LoadSnapEdgeList
/// accepts exactly that shape so the real datasets drop in unchanged; the
/// loader remaps ids to dense [0, n) and ignores self-loops. Orientation
/// handling is explicit (EdgeListOptions::directed): the
/// default load symmetrizes — every line becomes an undirected edge and
/// reverse duplicates merge — and a directed load keeps each line as the
/// arc u→v. Either way EdgeListStats reports how many mirrored pairs the
/// input contained, so a symmetrizing load of a directed source is a
/// visible, measured decision instead of a silent one.
///
/// This is the lowest-level text path. Most callers should go through
/// the format-sniffing ingestion front-end (graph/ingest.h), which also
/// reads Matrix Market files and binary snapshots and can cache parsed
/// text as an mmap-loadable snapshot. docs/formats.md specifies every
/// accepted format byte by byte.

namespace mhbc {

/// Parse-side counters of one edge-list load (EdgeListOptions::stats).
struct EdgeListStats {
  /// Edge lines parsed (after comment/blank stripping), incl. self-loops.
  std::size_t edge_lines = 0;
  /// Self-loop lines ("u u"), which never produce an edge.
  std::size_t self_loop_lines = 0;
  /// Unordered pairs {u,v} that appeared in *both* orientations. A
  /// symmetrizing load folds each such pair into one undirected edge (the
  /// historically silent symmetrization, now counted); a directed load
  /// keeps them as two reciprocal arcs. A non-zero count is the loader's
  /// directedness detection signal: the source distinguishes orientations.
  std::size_t mirrored_pairs = 0;
};

/// Options for LoadSnapEdgeList / ParseEdgeList.
struct EdgeListOptions {
  /// Lines with a third column become weighted edges; the column must
  /// parse (ParseEdgeWeight) or the load fails. When false a third column
  /// is an error.
  bool allow_weights = false;
  /// Keep only the largest connected component (the paper assumes a
  /// connected G; SNAP graphs have small satellite components). On a
  /// directed load the component is the largest *weakly* connected one
  /// (orientation ignored for membership, preserved in the result).
  bool largest_component_only = false;
  /// Parse each line as the directed arc u→v and build a directed graph
  /// (reciprocal lines stay distinct arcs; duplicate identical arcs still
  /// merge). When false the load is undirected: reverse-oriented
  /// duplicates ("1 2" and "2 1") fold into one edge, the historical
  /// SNAP-loader behavior.
  bool directed = false;
  /// When non-null, filled with the parse counters (always written, even
  /// on a load that later fails in the builder).
  EdgeListStats* stats = nullptr;
};

/// Parses an edge list from an input stream. See EdgeListOptions.
StatusOr<CsrGraph> ParseEdgeList(std::istream& in, const EdgeListOptions& options);

/// Loads a SNAP-format edge-list file.
StatusOr<CsrGraph> LoadSnapEdgeList(const std::string& path,
                                    const EdgeListOptions& options);

/// Parses `token` as an edge weight: the whole token must be a finite
/// positive double ("2.5", "1e-3"). False on anything else — trailing
/// junk ("2.5x"), overflow ("1e999"), inf, nan, zero or a negative value.
/// The one weight-token rule of the edge-list loader and the edit-script
/// reader.
bool ParseEdgeWeight(const std::string& token, double* weight);

/// Parses a comma-separated vertex-id list ("3,17,42" -> {3, 17, 42}).
/// Tokens are whitespace-trimmed ("3, 17" works) and empty tokens are
/// skipped. Any other malformed token fails the whole parse with
/// InvalidArgument naming the offending token and why (a typo must
/// surface as an error, not silently become vertex 0): non-digit
/// characters, ids >= kInvalidVertex (a wrap to 32 bits must not pick
/// some other vertex), and lists with no ids at all are all rejected.
/// The single strict parser behind both the CLI tools and the serving
/// protocol (serve/request_fields.h), so both surfaces reject identical
/// inputs with identical messages.
StatusOr<std::vector<VertexId>> ParseVertexIdListStrict(const std::string& csv);

/// Writes "u v [w]" lines (u < v undirected; one line per arc u→v, in
/// CSR order, directed — the header comment then carries a "directed"
/// tag) plus a '#' header. Output round-trips through LoadSnapEdgeList
/// (with EdgeListOptions::directed matching the graph; note the loader's
/// first-seen id remap: ids survive the round trip only when already
/// dense in first-seen order). The weighted-edge-list dialect emitted
/// here is specified in docs/formats.md; for a binary artifact that
/// preserves the CSR arrays byte-for-byte, use SaveSnapshot
/// (graph/snapshot.h).
Status WriteEdgeList(const CsrGraph& graph, const std::string& path);

/// Stream variant of WriteEdgeList.
void WriteEdgeList(const CsrGraph& graph, std::ostream& out);

}  // namespace mhbc
