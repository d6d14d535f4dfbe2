// Command-line estimator for real graph files — the tool a downstream
// user points at com-dblp.ungraph.txt (or its `.mhbc` snapshot).
//
// Usage:
//   example_snap_estimate [--cache-dir=<dir>] <graph> <vertex-id...>
//                         [estimator] [samples] [seed]
//
//   graph:     any ingestion format (graph/ingest.h): SNAP edge list,
//              weighted edge list, Matrix Market .mtx, or .mhbc snapshot —
//              sniffed from extension/content.
//   estimator: mh | mh-rb | uniform | distance | rk | geisberger | exact
//              (default mh)
//   samples:   chain length / sample budget (default 2000)
//
// With --cache-dir, a text dataset is parsed once, snapshotted under the
// given directory, and mmap-loaded zero-copy on every later run — the
// startup cost drops from a full parse to a file map (bench_e19_ingest
// measures the gap). Vertex ids refer to the loader's dense remapping
// order (first-seen order in the file) and may be a comma-separated
// list — the ids share one BetweennessEngine, so later estimates reuse
// the passes of earlier ones. Without arguments, the tool generates a
// small demo network, writes it to a temp file, and runs on that — so it
// is runnable anywhere.

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/ingest.h"
#include "serve/request_fields.h"

namespace {

int Run(const mhbc::GraphSource& source,
        const std::vector<mhbc::VertexId>& vertices,
        const mhbc::EstimateRequest& request) {
  const mhbc::CsrGraph& graph = source.graph();
  std::printf("graph: n=%u m=%llu%s  [%s%s%s]\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.weighted() ? " (weighted)" : "",
              mhbc::GraphFileFormatName(source.source_format()),
              source.zero_copy() ? ", zero-copy mmap" : "",
              source.cache_hit() ? ", cache hit" : "");
  mhbc::BetweennessEngine engine(graph);
  const auto reports = engine.EstimateMany(vertices, request);
  if (!reports.ok()) {
    std::fprintf(stderr, "error: %s\n", reports.status().ToString().c_str());
    return 1;
  }
  for (const mhbc::EstimateReport& report : reports.value()) {
    std::printf(
        "BC(%u) ~= %.8f   [estimator=%s, passes=%llu%s, +/-%.2e, %.3fs]\n",
        report.vertex, report.value, mhbc::EstimatorKindName(report.kind),
        static_cast<unsigned long long>(report.sp_passes),
        report.cache_hit ? " cached" : "", report.ci_half_width,
        report.seconds);
  }
  std::printf("total passes across %zu queries: %llu\n", reports.value().size(),
              static_cast<unsigned long long>(engine.total_sp_passes()));
  return 0;
}

}  // namespace

int main(int raw_argc, char** raw_argv) {
  mhbc::IngestOptions load_options;
  load_options.largest_component_only = true;

  // Strip --cache-dir= (accepted anywhere) before positional parsing.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(raw_argc));
  for (int i = 0; i < raw_argc; ++i) {
    const std::string arg = raw_argv[i];
    if (arg.rfind("--cache-dir=", 0) == 0) {
      load_options.cache_dir = arg.substr(std::string("--cache-dir=").size());
    } else {
      args.push_back(raw_argv[i]);
    }
  }
  const int argc = static_cast<int>(args.size());
  char** argv = args.data();

  mhbc::EstimateRequest request;
  request.kind = mhbc::EstimatorKind::kMetropolisHastings;
  request.samples = 2'000;
  request.seed = 0x5eed;

  if (argc < 3) {
    std::printf(
        "usage: %s [--cache-dir=<dir>] <graph> <vertex-id...> [estimator] "
        "[samples] [seed]\n"
        "no file given: running the built-in demo\n\n",
        argv[0]);
    // Self-contained demo: write a caveman network to a temp edge list,
    // load it back through the ingestion pipeline, estimate two gateway
    // vertices on one engine.
    const std::string path = "/tmp/mhbc_demo_edges.txt";
    const mhbc::CsrGraph demo = mhbc::MakeConnectedCaveman(6, 12);
    const mhbc::Status write_status = mhbc::WriteEdgeList(demo, path);
    if (!write_status.ok()) {
      std::fprintf(stderr, "demo write failed: %s\n",
                   write_status.ToString().c_str());
      return 1;
    }
    auto loaded = mhbc::OpenGraphSource(path, load_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "demo load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    return Run(loaded.value(), /*gateways=*/{11, 23}, request);
  }

  const std::string path = argv[1];
  const auto vertices = mhbc::ParseVertexIdListStrict(argv[2]);
  if (!vertices.ok()) {
    std::fprintf(stderr, "%s\n", vertices.status().message().c_str());
    return 2;
  }
  if (argc > 3 && !mhbc::ParseEstimatorKind(argv[3], &request.kind)) {
    std::fprintf(stderr, "unknown estimator '%s'\n", argv[3]);
    return 2;
  }
  if (argc > 4) {
    const auto samples = mhbc::serve::ParseCountField(
        "samples", argv[4], std::uint64_t{1} << 30);
    if (!samples.ok()) {
      std::fprintf(stderr, "%s\n", samples.status().message().c_str());
      return 2;
    }
    request.samples = samples.value();
  }
  if (argc > 5) {
    const auto seed = mhbc::serve::ParseCountField(
        "seed", argv[5], std::numeric_limits<std::uint64_t>::max());
    if (!seed.ok()) {
      std::fprintf(stderr, "%s\n", seed.status().message().c_str());
      return 2;
    }
    request.seed = seed.value();
  }

  auto loaded = mhbc::OpenGraphSource(path, load_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  return Run(loaded.value(), vertices.value(), request);
}
