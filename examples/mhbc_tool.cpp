// mhbc_tool — multitool CLI over the BetweennessEngine session API.
//
//   mhbc_tool [--threads=<k>] [--spd-threads=<k>] [--json] [--graph=<file>]
//             [--cache-dir=<dir>] [--directed] <command> ...
//
//   mhbc_tool stats      <graph>
//   mhbc_tool inspect    <file>
//   mhbc_tool convert    <in> <out>
//   mhbc_tool estimators
//   mhbc_tool estimate   <graph> <v1,v2,...> [estimator] [samples] [seed]
//   mhbc_tool mutate     <graph> <edit-script> <v1,v2,...> [estimator]
//                        [samples] [seed]
//   mhbc_tool exact      <graph> <vertex>
//   mhbc_tool topk       <graph> <k> [eps] [delta]
//   mhbc_tool rank       <graph> <v1,v2,...> [iterations]
//   mhbc_tool generate   <family> <args...> <out-file>
//              families: ba <n> <m-per-vertex> <seed> | er <n> <p> <seed> |
//                        ws <n> <k> <beta> <seed>    | grid <rows> <cols> |
//                        caveman <communities> <size>
//
// <graph> accepts every ingestion format (graph/ingest.h, docs/formats.md):
// SNAP edge lists, weighted edge lists, Matrix Market `.mtx`, and `.mhbc`
// binary snapshots — format is sniffed from extension/content. `convert`
// transcodes between them by output extension (`.mhbc` snapshot, `.mtx`
// Matrix Market, anything else edge list); `inspect` prints snapshot
// header/checksum metadata without building the graph.
//
// `mutate` estimates the vertices, applies the edit script
// (docs/formats.md: `add <u> <v> [w]` / `remove <u> <v>` / `addvertex
// [count]`) to the live engine, and re-estimates — the incremental path:
// shortest-path passes whose SPDs the edits provably do not touch survive
// the mutation (hop-distance test unweighted, slack + min-incident-weight
// test weighted), so the post-edit column costs fewer passes than the
// first.
//
// Global flags (anywhere on the command line):
//   --threads=<k>    engine worker threads for the source-parallel axis
//                    (exact builds, RK batches); 0 = one per hardware
//                    thread, default 1. Multi-vertex estimates serve in
//                    order on one memo, and it never widens a pass. Values are bit-identical at any
//                    setting — threads change wall-clock, never results.
//   --spd-threads=<k> frontier-parallel (unweighted) or wave-parallel
//                    (weighted) threads *within* each shortest-path pass
//                    (SpdOptions::num_threads; default 1, sequential).
//                    Same contract: bit-identical results at every
//                    setting; use for single-vertex queries on large
//                    graphs where the source axis has no parallelism.
//   --json           machine-readable output: tables render as
//                    {"columns": ..., "rows": ...}, estimates as full
//                    report objects (value, std_error, ci, passes,
//                    cache_hit, screened_reads, ...).
//   --graph=<file>   default graph file; commands taking a <graph>
//                    positional use it when the positional is omitted
//                    (e.g. `mhbc_tool --graph=g.mhbc stats`).
//   --cache-dir=<d>  snapshot cache: text datasets are parsed once,
//                    snapshotted under <d>, and mmap-loaded zero-copy on
//                    every later run.
//   --directed       ingest text formats as directed: edge-list lines
//                    stay the arc u→v (Matrix Market entries row→col)
//                    instead of symmetrizing. Snapshots carry their own
//                    directed flag and ignore this.
//
// Every command builds ONE engine per invocation; multi-vertex estimates
// and the rank command's score+order pair amortize their passes through
// it. `estimators` prints the shared registry (the same table the engine
// dispatches on). Run without arguments for a self-contained demo of
// every subcommand on a generated network.
//
// Exit codes (asserted by tests/tool_cli_test.cc, so scripts can branch
// on the failure class):
//   0  success
//   2  usage error — unknown command/flag/estimator, an estimator the
//      graph rules out (e.g. geisberger on a directed graph), malformed
//      arguments
//   3  I/O error — unreadable/missing/corrupt input, unwritable output
//   4  compute error — the engine rejected a well-formed request
//      (vertex out of range, inapplicable edit script, ...)

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/ingest.h"
#include "graph/snapshot.h"
#include "serve/request_fields.h"
#include "util/table.h"

namespace {

using mhbc::CsrGraph;
using mhbc::VertexId;

/// Global flags, stripped from argv before command dispatch.
struct ToolFlags {
  unsigned threads = 1;
  unsigned spd_threads = 1;  // --spd-threads= intra-pass width
  bool json = false;
  bool directed = false;  // --directed: ingest text formats as directed
  std::string graph;      // --graph= default graph file
  std::string cache_dir;  // --cache-dir= snapshot cache
};
ToolFlags g_flags;

mhbc::EngineOptions ToolEngineOptions() {
  mhbc::EngineOptions options;
  options.num_threads = g_flags.threads;
  options.spd.num_threads = g_flags.spd_threads;
  return options;
}

/// The SPD kernel passes on this engine's graph run: the hybrid BFS on
/// unweighted graphs, canonical-wave delta-stepping on weighted ones.
const char* KernelName(const mhbc::BetweennessEngine& engine) {
  return engine.graph().weighted() ? "delta" : "hybrid";
}

/// Renders a titled table honouring --json.
void PrintTableOrJson(const mhbc::Table& table) {
  if (g_flags.json) {
    std::printf("%s\n", table.ToJson().c_str());
  } else {
    std::printf("%s", table.ToMarkdown().c_str());
  }
}

/// Exit codes, asserted by tests/tool_cli_test.cc. Distinct classes so
/// scripts can tell "you called it wrong" (usage) from "could not read or
/// write a file" (io) from "the computation rejected the input" (compute).
enum ExitCode : int {
  kExitOk = 0,
  kExitUsage = 2,    // unknown command/flag/estimator, an estimator the
                     // graph rules out, wrong arity, bad ids
  kExitIo = 3,       // missing/unreadable/unwritable/corrupt files
  kExitCompute = 4,  // estimation or mutation failed on loadable input
};

int UsageError(const std::string& message) {
  std::fprintf(stderr, "usage error: %s\n", message.c_str());
  return kExitUsage;
}

/// Maps a non-OK Status onto the exit-code classes: file-system trouble is
/// kExitIo, everything else (failed preconditions, invalid vertex ids,
/// rejected computations) is kExitCompute.
int Fail(const mhbc::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return (status.code() == mhbc::StatusCode::kIoError ||
          status.code() == mhbc::StatusCode::kNotFound)
             ? kExitIo
             : kExitCompute;
}

/// Parses the shared trailing [estimator] [samples] [seed] CLI triple of
/// `estimate` and `mutate` into `request` (argv[0] is the estimator),
/// through the validators every serving surface shares
/// (serve/request_fields.h) — the daemon rejects the same malformed
/// fields with the same messages. Returns a non-empty error string on
/// failure.
std::string ParseEstimateArgs(int argc, char** argv,
                              mhbc::EstimateRequest* request) {
  request->kind = mhbc::EstimatorKind::kMetropolisHastings;
  request->samples = 2'000;
  if (argc > 0) {
    const auto kind = mhbc::serve::ParseEstimatorField(argv[0]);
    if (!kind.ok()) return kind.status().message();
    request->kind = kind.value();
  }
  if (argc > 1) {
    const auto samples = mhbc::serve::ParseCountField(
        "samples", argv[1], std::uint64_t{1} << 30);
    if (!samples.ok()) return samples.status().message();
    request->samples = samples.value();
  }
  if (argc > 2) {
    const auto seed = mhbc::serve::ParseCountField(
        "seed", argv[2], std::numeric_limits<std::uint64_t>::max());
    if (!seed.ok()) return seed.status().message();
    request->seed = seed.value();
  }
  return "";
}

/// Strict vertex-list positional: parse errors become usage errors with
/// the shared "no vertex ids ..." messages.
mhbc::StatusOr<std::vector<VertexId>> ParseVertices(const char* csv) {
  return mhbc::serve::ParseVertexListField(csv);
}

/// Opens a graph in any ingestion format, honouring --cache-dir. The
/// largest component is always extracted (the estimators assume a
/// connected G, and SNAP files ship satellite components).
mhbc::StatusOr<mhbc::GraphSource> Load(const std::string& path) {
  mhbc::IngestOptions options;
  options.directed = g_flags.directed;
  options.largest_component_only = true;
  options.cache_dir = g_flags.cache_dir;
  return mhbc::OpenGraphSource(path, options);
}

int CmdStats(const std::string& path) {
  auto source = Load(path);
  if (!source.ok()) return Fail(source.status());
  const mhbc::GraphStats s = mhbc::ComputeGraphStats(source.value().graph());
  mhbc::Table table({"metric", "value"});
  table.AddRow({"n", mhbc::FormatCount(s.num_vertices)});
  table.AddRow({"m", mhbc::FormatCount(s.num_edges)});
  table.AddRow({"density", mhbc::FormatScientific(s.density, 3)});
  table.AddRow({"degree min/avg/max",
                std::to_string(s.min_degree) + " / " +
                    mhbc::FormatDouble(s.avg_degree, 2) + " / " +
                    std::to_string(s.max_degree)});
  table.AddRow({std::string("diameter") + (s.exact_diameter ? "" : " (>=)"),
                std::to_string(s.diameter)});
  table.AddRow({"triangles", mhbc::FormatCount(s.triangles)});
  table.AddRow({"global clustering", mhbc::FormatDouble(s.global_clustering, 4)});
  table.AddRow({"avg local clustering",
                mhbc::FormatDouble(s.avg_local_clustering, 4)});
  table.AddRow({"connected", s.connected ? "yes" : "no (LCC shown)"});
  table.AddRow({"weighted", s.weighted ? "yes" : "no"});
  table.AddRow({"loaded from",
                std::string(mhbc::GraphFileFormatName(
                    source.value().source_format())) +
                    (source.value().zero_copy() ? ", zero-copy mmap" : "") +
                    (source.value().cache_hit() ? ", cache hit" : "")});
  PrintTableOrJson(table);
  return 0;
}

int CmdInspect(const std::string& path) {
  const mhbc::GraphFileFormat format = mhbc::SniffGraphFormat(path);
  mhbc::Table table({"field", "value"});
  if (format == mhbc::GraphFileFormat::kSnapshot) {
    auto info = mhbc::InspectSnapshot(path);
    if (!info.ok()) return Fail(info.status());
    const mhbc::SnapshotInfo& s = info.value();
    table.AddRow({"format", "snapshot (.mhbc)"});
    table.AddRow({"version", std::to_string(s.version)});
    table.AddRow({"name", s.name});
    table.AddRow({"n", mhbc::FormatCount(s.num_vertices)});
    table.AddRow({"m", mhbc::FormatCount(s.num_edges)});
    table.AddRow({"weighted", s.weighted ? "yes" : "no"});
    table.AddRow({"directed", s.directed ? "yes" : "no"});
    table.AddRow({"file bytes", mhbc::FormatCount(s.file_bytes)});
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(s.stored_checksum));
    table.AddRow({"checksum", std::string(checksum) +
                                  (s.checksum_ok ? " (ok)" : " (MISMATCH)")});
    PrintTableOrJson(table);
    return s.checksum_ok ? kExitOk : kExitIo;
  }
  // Text formats: parse without preprocessing and report the basics.
  mhbc::IngestOptions options;
  options.directed = g_flags.directed;
  auto source = mhbc::OpenGraphSource(path, options);
  if (!source.ok()) return Fail(source.status());
  const CsrGraph& graph = source.value().graph();
  table.AddRow({"format", mhbc::GraphFileFormatName(format)});
  table.AddRow({"n", mhbc::FormatCount(graph.num_vertices())});
  table.AddRow({"m", mhbc::FormatCount(graph.num_edges())});
  table.AddRow({"weighted", graph.weighted() ? "yes" : "no"});
  table.AddRow({"directed", graph.directed() ? "yes" : "no"});
  if (source.value().mirrored_pairs() > 0) {
    table.AddRow({"mirrored pairs",
                  mhbc::FormatCount(source.value().mirrored_pairs())});
  }
  PrintTableOrJson(table);
  return 0;
}

int CmdConvert(const std::string& in, const std::string& out) {
  // Faithful transcode: no component extraction or relabeling.
  mhbc::IngestOptions convert_options;
  convert_options.directed = g_flags.directed;
  auto source = mhbc::OpenGraphSource(in, convert_options);
  if (!source.ok()) return Fail(source.status());
  const CsrGraph& graph = source.value().graph();
  const mhbc::GraphFileFormat out_format = [&out] {
    const std::string::size_type dot = out.rfind('.');
    const std::string ext = dot == std::string::npos ? "" : out.substr(dot);
    if (ext == mhbc::kSnapshotExtension) return mhbc::GraphFileFormat::kSnapshot;
    if (ext == ".mtx" || ext == ".mm") return mhbc::GraphFileFormat::kMatrixMarket;
    return mhbc::GraphFileFormat::kWeightedEdgeList;
  }();
  mhbc::Status status;
  switch (out_format) {
    case mhbc::GraphFileFormat::kSnapshot:
      if (graph.name().empty()) {
        // Stamp the source path as the name (loaders normally set it;
        // copying only in this rare case avoids duplicating the arrays).
        CsrGraph named = graph;
        named.set_name(in);
        status = mhbc::SaveSnapshot(named, out);
      } else {
        status = mhbc::SaveSnapshot(graph, out);
      }
      break;
    case mhbc::GraphFileFormat::kMatrixMarket:
      status = mhbc::WriteMatrixMarket(graph, out);
      break;
    default:
      status = mhbc::WriteEdgeList(graph, out);
      break;
  }
  if (!status.ok()) return Fail(status);
  if (g_flags.json) {
    std::printf("{\"in\": \"%s\", \"out\": \"%s\", \"format\": \"%s\", "
                "\"n\": %u, \"m\": %llu}\n",
                in.c_str(), out.c_str(), mhbc::GraphFileFormatName(out_format),
                graph.num_vertices(),
                static_cast<unsigned long long>(graph.num_edges()));
    return 0;
  }
  std::printf("wrote %s (%s): n=%u m=%llu\n", out.c_str(),
              mhbc::GraphFileFormatName(out_format), graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));
  return 0;
}

int CmdEstimators() {
  mhbc::Table table(
      {"name", "weighted", "directed", "chain", "description"});
  for (const mhbc::EstimatorEntry& entry : mhbc::EstimatorRegistry()) {
    table.AddRow({entry.name, entry.supports_weighted ? "yes" : "no",
                  entry.supports_directed ? "yes" : "no",
                  entry.chain_based ? "yes" : "no", entry.summary});
  }
  PrintTableOrJson(table);
  return 0;
}

int CmdEstimate(const std::string& path, int argc, char** argv) {
  auto source = Load(path);
  if (!source.ok()) return Fail(source.status());
  const auto vertices = ParseVertices(argv[0]);
  if (!vertices.ok()) return UsageError(vertices.status().message());
  mhbc::EstimateRequest request;
  const std::string parse_error =
      ParseEstimateArgs(argc - 1, argv + 1, &request);
  if (!parse_error.empty()) return UsageError(parse_error);
  // An estimator the registry rules out for this graph (e.g. geisberger
  // on a directed one) is a usage error, like an unknown estimator name.
  const mhbc::Status fits = mhbc::CheckEstimatorSupportsGraph(
      *mhbc::FindEstimator(request.kind), source.value().graph());
  if (!fits.ok()) return UsageError(fits.message());
  mhbc::BetweennessEngine engine(source.value().graph(), ToolEngineOptions());
  const auto reports = engine.EstimateMany(vertices.value(), request);
  if (!reports.ok()) return Fail(reports.status());
  if (g_flags.json) {
    std::printf("[");
    for (std::size_t i = 0; i < reports.value().size(); ++i) {
      const mhbc::EstimateReport& report = reports.value()[i];
      std::printf(
          "%s{\"vertex\": %u, \"value\": %.17g, \"estimator\": \"%s\", "
          "\"kernel\": \"%s\", \"spd_threads\": %u, "
          "\"samples_used\": %llu, \"std_error\": %.17g, "
          "\"ci_half_width\": %.17g, \"ess\": %.17g, "
          "\"acceptance_rate\": %.17g, \"sp_passes\": %llu, "
          "\"cache_hit\": %s, \"screened_reads\": %llu, "
          "\"converged\": %s, \"seconds\": %.6f}",
          i > 0 ? ", " : "", report.vertex, report.value,
          mhbc::EstimatorKindName(report.kind), KernelName(engine),
          engine.options().spd.num_threads,
          static_cast<unsigned long long>(report.samples_used),
          report.std_error, report.ci_half_width, report.ess,
          report.acceptance_rate,
          static_cast<unsigned long long>(report.sp_passes),
          report.cache_hit ? "true" : "false",
          static_cast<unsigned long long>(report.screened_reads),
          report.converged ? "true" : "false", report.seconds);
    }
    std::printf("]\n");
    return 0;
  }
  for (const mhbc::EstimateReport& report : reports.value()) {
    std::printf("BC(%u) ~= %.8f  [%s, %llu passes%s, +/-%.2e, %.3fs]\n",
                report.vertex, report.value,
                mhbc::EstimatorKindName(report.kind),
                static_cast<unsigned long long>(report.sp_passes),
                report.cache_hit ? " cached" : "", report.ci_half_width,
                report.seconds);
  }
  return 0;
}

int CmdMutate(const std::string& path, int argc, char** argv) {
  auto source = Load(path);
  if (!source.ok()) return Fail(source.status());
  auto delta = mhbc::ParseEditScript(argv[0]);
  if (!delta.ok()) return Fail(delta.status());
  const auto parsed_vertices = ParseVertices(argv[1]);
  if (!parsed_vertices.ok()) {
    return UsageError(parsed_vertices.status().message());
  }
  const std::vector<VertexId>& vertices = parsed_vertices.value();
  mhbc::EstimateRequest request;
  const std::string parse_error =
      ParseEstimateArgs(argc - 2, argv + 2, &request);
  if (!parse_error.empty()) return UsageError(parse_error);
  const mhbc::Status fits = mhbc::CheckEstimatorSupportsGraph(
      *mhbc::FindEstimator(request.kind), source.value().graph());
  if (!fits.ok()) return UsageError(fits.message());

  // One engine across the edit: the pre-edit pass warms the dependency
  // memo, ApplyDelta keeps every pass the edits do not touch, and the
  // post-edit estimate pays only for what actually changed.
  mhbc::BetweennessEngine engine(source.value().graph(), ToolEngineOptions());
  const auto before = engine.EstimateMany(vertices, request);
  if (!before.ok()) return Fail(before.status());
  const std::uint64_t n_before = engine.graph().num_vertices();
  const std::uint64_t m_before = engine.graph().num_edges();
  const mhbc::Status applied = engine.ApplyDelta(delta.value());
  if (!applied.ok()) return Fail(applied);
  const auto after = engine.EstimateMany(vertices, request);
  if (!after.ok()) return Fail(after.status());

  if (g_flags.json) {
    std::printf(
        "{\"edits\": %zu, \"epoch\": %llu, "
        "\"n\": {\"before\": %llu, \"after\": %u}, "
        "\"m\": {\"before\": %llu, \"after\": %llu}, \"reports\": [",
        delta.value().size(),
        static_cast<unsigned long long>(engine.graph_epoch()),
        static_cast<unsigned long long>(n_before),
        engine.graph().num_vertices(),
        static_cast<unsigned long long>(m_before),
        static_cast<unsigned long long>(engine.graph().num_edges()));
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      const mhbc::EstimateReport& pre = before.value()[i];
      const mhbc::EstimateReport& post = after.value()[i];
      std::printf("%s{\"vertex\": %u, \"before\": %.17g, \"after\": %.17g, "
                  "\"std_error\": %.17g, \"passes_before\": %llu, "
                  "\"passes_after\": %llu}",
                  i > 0 ? ", " : "", pre.vertex, pre.value, post.value,
                  post.std_error,
                  static_cast<unsigned long long>(pre.sp_passes),
                  static_cast<unsigned long long>(post.sp_passes));
    }
    std::printf("]}\n");
    return 0;
  }
  std::printf("applied %zu edits (epoch %llu): n %llu -> %u, m %llu -> %llu\n",
              delta.value().size(),
              static_cast<unsigned long long>(engine.graph_epoch()),
              static_cast<unsigned long long>(n_before),
              engine.graph().num_vertices(),
              static_cast<unsigned long long>(m_before),
              static_cast<unsigned long long>(engine.graph().num_edges()));
  mhbc::Table table({"vertex", "BC before", "BC after", "+/-",
                     "passes before", "passes after"});
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const mhbc::EstimateReport& pre = before.value()[i];
    const mhbc::EstimateReport& post = after.value()[i];
    table.AddRow({std::to_string(pre.vertex),
                  mhbc::FormatDouble(pre.value, 8),
                  mhbc::FormatDouble(post.value, 8),
                  mhbc::FormatScientific(post.ci_half_width, 2),
                  std::to_string(pre.sp_passes),
                  std::to_string(post.sp_passes)});
  }
  PrintTableOrJson(table);
  return 0;
}

int CmdExact(const std::string& path, const char* vertex) {
  const auto parsed = mhbc::serve::ParseCountField("vertex", vertex,
                                                   mhbc::kInvalidVertex - 1);
  if (!parsed.ok()) return UsageError(parsed.status().message());
  const auto r = static_cast<VertexId>(parsed.value());
  auto source = Load(path);
  if (!source.ok()) return Fail(source.status());
  mhbc::EstimateRequest request;
  request.kind = mhbc::EstimatorKind::kExact;
  mhbc::BetweennessEngine engine(source.value().graph(), ToolEngineOptions());
  const auto result = engine.Estimate(r, request);
  if (!result.ok()) return Fail(result.status());
  if (g_flags.json) {
    std::printf("{\"vertex\": %u, \"value\": %.17g, \"estimator\": \"exact\", "
                "\"kernel\": \"%s\", \"spd_threads\": %u, "
                "\"sp_passes\": %llu, \"seconds\": %.6f}\n",
                r, result.value().value, KernelName(engine),
                engine.options().spd.num_threads,
                static_cast<unsigned long long>(result.value().sp_passes),
                result.value().seconds);
    return 0;
  }
  std::printf("BC(%u) = %.10f  [exact, %.3fs]\n", r, result.value().value,
              result.value().seconds);
  return 0;
}

int CmdTopK(const std::string& path, int argc, char** argv) {
  const auto k = mhbc::serve::ParseCountField(
      "k", argv[0], std::numeric_limits<std::uint32_t>::max());
  if (!k.ok()) return UsageError(k.status().message());
  const mhbc::StatusOr<double> eps =
      argc > 1 ? mhbc::serve::ParseRealField("eps", argv[1]) : 0.02;
  if (!eps.ok()) return UsageError(eps.status().message());
  const mhbc::StatusOr<double> delta =
      argc > 2 ? mhbc::serve::ParseRealField("delta", argv[2]) : 0.1;
  if (!delta.ok()) return UsageError(delta.status().message());
  auto source = Load(path);
  if (!source.ok()) return Fail(source.status());
  mhbc::BetweennessEngine engine(source.value().graph(), ToolEngineOptions());
  const auto result = engine.TopK(static_cast<std::uint32_t>(k.value()),
                                  eps.value(), delta.value());
  if (!result.ok()) return Fail(result.status());
  mhbc::Table table({"rank", "vertex", "estimated BC"});
  std::size_t rank = 1;
  for (const mhbc::TopKEntry& entry : result.value()) {
    table.AddRow({std::to_string(rank++), std::to_string(entry.vertex),
                  mhbc::FormatDouble(entry.estimate, 6)});
  }
  PrintTableOrJson(table);
  return 0;
}

int CmdRank(const std::string& path, int argc, char** argv) {
  auto source = Load(path);
  if (!source.ok()) return Fail(source.status());
  const auto parsed_targets = ParseVertices(argv[0]);
  if (!parsed_targets.ok()) {
    return UsageError(parsed_targets.status().message());
  }
  const std::vector<VertexId>& targets = parsed_targets.value();
  std::uint64_t iterations = 20'000;
  if (argc > 1) {
    const auto parsed = mhbc::serve::ParseCountField("iterations", argv[1],
                                                     std::uint64_t{1} << 30);
    if (!parsed.ok()) return UsageError(parsed.status().message());
    iterations = parsed.value();
  }
  // One engine: the joint chain runs once and serves both calls.
  mhbc::BetweennessEngine engine(source.value().graph(), ToolEngineOptions());
  const auto joint = engine.EstimateRelative(targets, iterations);
  if (!joint.ok()) return Fail(joint.status());
  const auto order = engine.RankTargets(targets, iterations);
  if (!order.ok()) return Fail(order.status());
  mhbc::Table table({"rank", "vertex", "copeland", "samples |M|"});
  std::size_t rank = 1;
  for (std::size_t idx : order.value()) {
    table.AddRow({std::to_string(rank++), std::to_string(targets[idx]),
                  mhbc::FormatDouble(joint.value().copeland_scores[idx], 0),
                  mhbc::FormatCount(joint.value().samples_per_target[idx])});
  }
  PrintTableOrJson(table);
  if (joint.value().undersampled) {
    std::printf("warning: some targets were never sampled (zero or "
                "near-zero betweenness)\n");
  }
  return 0;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 2) return UsageError("generate: need <family> <args...> <out-file>");
  const std::string family = argv[0];
  const std::string out = argv[argc - 1];
  // Every parameter parses strictly before its generator runs, so a typo
  // ("4x") is a usage error, never a truncated value.
  std::string error;
  auto count = [&](int i, const char* name, std::uint64_t max,
                   std::uint64_t* value) {
    const auto parsed = mhbc::serve::ParseCountField(name, argv[i], max);
    if (!parsed.ok()) {
      error = parsed.status().message();
      return false;
    }
    *value = parsed.value();
    return true;
  };
  auto real = [&](int i, const char* name, double* value) {
    const auto parsed = mhbc::serve::ParseRealField(name, argv[i]);
    if (!parsed.ok()) {
      error = parsed.status().message();
      return false;
    }
    *value = parsed.value();
    return true;
  };
  constexpr std::uint64_t kMaxN = mhbc::kInvalidVertex - 1;
  constexpr std::uint64_t kMaxK = std::numeric_limits<std::uint32_t>::max();
  constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t a = 0, b = 0, seed = 0;
  double real_param = 0.0;
  CsrGraph graph;
  if (family == "ba" && argc == 5) {
    if (count(1, "n", kMaxN, &a) && count(2, "m", kMaxK, &b) &&
        count(3, "seed", kMaxSeed, &seed)) {
      graph = mhbc::MakeBarabasiAlbert(static_cast<VertexId>(a),
                                       static_cast<std::uint32_t>(b), seed);
    }
  } else if (family == "er" && argc == 5) {
    if (count(1, "n", kMaxN, &a) && real(2, "p", &real_param) &&
        count(3, "seed", kMaxSeed, &seed)) {
      graph = mhbc::MakeErdosRenyiGnp(static_cast<VertexId>(a), real_param,
                                      seed);
    }
  } else if (family == "ws" && argc == 6) {
    if (count(1, "n", kMaxN, &a) && count(2, "k", kMaxK, &b) &&
        real(3, "beta", &real_param) && count(4, "seed", kMaxSeed, &seed)) {
      graph = mhbc::MakeWattsStrogatz(static_cast<VertexId>(a),
                                      static_cast<std::uint32_t>(b),
                                      real_param, seed);
    }
  } else if (family == "grid" && argc == 4) {
    if (count(1, "rows", kMaxN, &a) && count(2, "cols", kMaxN, &b)) {
      graph = mhbc::MakeGrid(static_cast<VertexId>(a),
                             static_cast<VertexId>(b));
    }
  } else if (family == "caveman" && argc == 4) {
    if (count(1, "communities", kMaxN, &a) && count(2, "size", kMaxN, &b)) {
      graph = mhbc::MakeConnectedCaveman(static_cast<VertexId>(a),
                                         static_cast<VertexId>(b));
    }
  } else {
    return UsageError("generate: unknown family or wrong arity");
  }
  if (!error.empty()) return UsageError("generate: " + error);
  const mhbc::Status status = mhbc::WriteEdgeList(graph, out);
  if (!status.ok()) return Fail(status);
  if (g_flags.json) {
    std::printf("{\"file\": \"%s\", \"n\": %u, \"m\": %llu}\n", out.c_str(),
                graph.num_vertices(),
                static_cast<unsigned long long>(graph.num_edges()));
    return 0;
  }
  std::printf("wrote %s: n=%u m=%llu\n", out.c_str(), graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));
  return 0;
}

int Demo() {
  std::printf("mhbc_tool demo (run with a subcommand for real use; see "
              "header comment)\n\n");
  const std::string path = "/tmp/mhbc_tool_demo.txt";
  char* gen_args[] = {(char*)"caveman", (char*)"6", (char*)"12",
                      (char*)path.c_str()};
  if (const int rc = CmdGenerate(4, gen_args); rc != 0) return rc;
  std::printf("\n-- stats --\n");
  if (const int rc = CmdStats(path); rc != 0) return rc;
  std::printf("\n-- convert to snapshot + inspect --\n");
  const std::string snapshot = "/tmp/mhbc_tool_demo.mhbc";
  if (const int rc = CmdConvert(path, snapshot); rc != 0) return rc;
  if (const int rc = CmdInspect(snapshot); rc != 0) return rc;
  std::printf("\n-- estimators --\n");
  if (const int rc = CmdEstimators(); rc != 0) return rc;
  std::printf("\n-- estimate gateways 11,23 (mh-rb) --\n");
  char* est_args[] = {(char*)"11,23", (char*)"mh-rb", (char*)"2000"};
  if (const int rc = CmdEstimate(path, 3, est_args); rc != 0) return rc;
  std::printf("\n-- exact gateway 11 --\n");
  if (const int rc = CmdExact(path, "11"); rc != 0) return rc;
  std::printf("\n-- mutate (append a member, rewire a clique edge) --\n");
  mhbc::GraphDelta delta;
  delta.AddVertices(1).AddEdge(5, 72).RemoveEdge(0, 1);
  const std::string script =
      (std::filesystem::temp_directory_path() / "mhbc_tool_demo.edits")
          .string();
  const mhbc::Status wrote = mhbc::WriteEditScript(delta, script);
  if (!wrote.ok()) return Fail(wrote);
  char* mutate_args[] = {(char*)script.c_str(), (char*)"11,23",
                         (char*)"mh", (char*)"2000"};
  const int mutate_rc = CmdMutate(path, 4, mutate_args);
  std::remove(script.c_str());
  if (mutate_rc != 0) return mutate_rc;
  std::printf("\n-- top-5 --\n");
  char* topk_args[] = {(char*)"5", (char*)"0.03"};
  if (const int rc = CmdTopK(path, 2, topk_args); rc != 0) return rc;
  std::printf("\n-- rank gateways --\n");
  char* rank_args[] = {(char*)"11,23,35,47"};
  return CmdRank(path, 1, rank_args);
}

}  // namespace

int main(int raw_argc, char** raw_argv) {
  // Strip global flags (accepted anywhere) before positional dispatch.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(raw_argc));
  for (int i = 0; i < raw_argc; ++i) {
    const std::string arg = raw_argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      const auto parsed = mhbc::serve::ParseCountField(
          "--threads", arg.substr(std::string("--threads=").size()),
          mhbc::serve::kMaxThreadCount);
      if (!parsed.ok()) return UsageError(parsed.status().message());
      g_flags.threads = static_cast<unsigned>(parsed.value());
    } else if (arg.rfind("--spd-threads=", 0) == 0) {
      const auto parsed = mhbc::serve::ParseCountField(
          "--spd-threads", arg.substr(std::string("--spd-threads=").size()),
          mhbc::serve::kMaxThreadCount);
      if (!parsed.ok()) return UsageError(parsed.status().message());
      g_flags.spd_threads = static_cast<unsigned>(parsed.value());
    } else if (arg == "--json") {
      g_flags.json = true;
    } else if (arg.rfind("--graph=", 0) == 0) {
      g_flags.graph = arg.substr(std::string("--graph=").size());
      if (g_flags.graph.empty()) return UsageError("--graph expects a file path");
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      g_flags.cache_dir = arg.substr(std::string("--cache-dir=").size());
      if (g_flags.cache_dir.empty()) {
        return UsageError("--cache-dir expects a directory path");
      }
    } else if (arg == "--directed") {
      g_flags.directed = true;
    } else if (i > 0 && arg.rfind("--", 0) == 0) {
      return UsageError("unknown flag '" + arg +
                        "' (flags: --threads=<k>, --spd-threads=<k>, "
                        "--json, --graph=<file>, --cache-dir=<dir>, "
                        "--directed)");
    } else {
      args.push_back(raw_argv[i]);
    }
  }
  const int argc = static_cast<int>(args.size());
  char** argv = args.data();
  if (argc < 2) return Demo();
  const std::string command = argv[1];

  // Graph-taking commands read their <graph> from --graph= when given,
  // else from the first positional after the command. `rest` is the index
  // of the first command-specific argument either way.
  const char* graph = nullptr;
  int rest = 2;
  if (!g_flags.graph.empty()) {
    graph = g_flags.graph.c_str();
  } else if (argc > 2) {
    graph = argv[2];
    rest = 3;
  }

  if (command == "estimators" && argc == 2) return CmdEstimators();
  if (command == "generate") return CmdGenerate(argc - 2, argv + 2);
  if (command == "convert") {
    // convert takes <in> <out>; with --graph= only <out> remains.
    if (graph != nullptr && argc == rest + 1) {
      return CmdConvert(graph, argv[rest]);
    }
  } else if (graph != nullptr) {
    if (command == "stats" && argc == rest) return CmdStats(graph);
    if (command == "inspect" && argc == rest) return CmdInspect(graph);
    if (command == "estimate" && argc > rest) {
      return CmdEstimate(graph, argc - rest, argv + rest);
    }
    if (command == "mutate" && argc > rest + 1) {
      return CmdMutate(graph, argc - rest, argv + rest);
    }
    if (command == "exact" && argc == rest + 1) {
      return CmdExact(graph, argv[rest]);
    }
    if (command == "topk" && argc > rest) {
      return CmdTopK(graph, argc - rest, argv + rest);
    }
    if (command == "rank" && argc > rest) {
      return CmdRank(graph, argc - rest, argv + rest);
    }
  }
  return UsageError("unknown command or wrong arity; run without arguments "
                    "for the demo and usage");
}
