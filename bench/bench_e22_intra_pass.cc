// E22 — intra-pass scaling: frontier-parallel SPD passes (sp/bfs_spd.h,
// SpdOptions::num_threads) at 1/2/4/8 threads, with the BFS kernel pinned
// top-down (alpha = 0) and direction-optimizing (the default), across the
// registry graphs.
//
// For each (graph, kernel setting, threads) row the harness reports
//
//   * passes/sec          — forward SPD passes only,
//   * fused passes/sec    — pass + sequential dependency accumulation
//                           (the true per-sample unit every estimator
//                           pays),
//   * speedup / fused x   — against the 1-thread row of the same kernel,
//   * det                 — bit-identity gate against the 1-thread run:
//                           dist/sigma/order/level_offsets, predecessor
//                           lists, and dependency vectors must match
//                           exactly ("!DET" must never appear; the
//                           process exits 1 if it does).
//
//   bench_e22_intra_pass [sources_per_graph] [--smoke] [--grain=<g>]
//
// Defaults: 64 sources per graph, the shipped parallel_grain; --smoke
// drops to 8 sources (the CI artifact run); --grain overrides the
// per-level parallel cutoff (0 forces every level through the sharded
// steps — the worst case for overhead, the best case for coverage).
// Timing loops report the fastest-of-3 wall clock; the JSON twin lands
// in BENCH_e22.json.
// --help prints the usage and exits 0; a malformed argument or value
// ("--grain=-1", "12x") prints it and exits 2.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datasets/registry.h"
#include "sp/bfs_spd.h"
#include "sp/dependency.h"
#include "util/timer.h"

namespace {

using namespace mhbc;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

std::vector<VertexId> SpreadSources(VertexId n, std::size_t count) {
  std::vector<VertexId> sources;
  sources.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sources.push_back(static_cast<VertexId>(
        (static_cast<std::uint64_t>(n) * i) / count));
  }
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return sources;
}

struct ThreadRun {
  double pass_seconds = 0.0;
  double fused_seconds = 0.0;
};

ThreadRun TimeAtThreads(const CsrGraph& graph, const SpdOptions& options,
                        const std::vector<VertexId>& sources) {
  ThreadRun run;
  BfsSpd bfs(graph, options);
  DependencyAccumulator accumulator(graph);
  constexpr int kRepeats = 3;
  double best_pass = -1.0;
  double best_fused = -1.0;
  for (int r = 0; r < kRepeats; ++r) {
    WallTimer pass_timer;
    for (VertexId s : sources) bfs.Run(s);
    const double pass_seconds = pass_timer.ElapsedSeconds();
    if (best_pass < 0.0 || pass_seconds < best_pass) best_pass = pass_seconds;

    WallTimer fused_timer;
    for (VertexId s : sources) {
      bfs.Run(s);
      accumulator.Accumulate(bfs);
    }
    const double fused_seconds = fused_timer.ElapsedSeconds();
    if (best_fused < 0.0 || fused_seconds < best_fused) {
      best_fused = fused_seconds;
    }
  }
  run.pass_seconds = best_pass;
  run.fused_seconds = best_fused;
  return run;
}

/// Per-row bit-identity gate: the `threads`-wide engine must reproduce
/// the 1-thread engine exactly on every source — DAG (dist, sigma,
/// canonical order, level offsets), predecessor lists, and dependency
/// vectors.
bool MatchesSequential(const CsrGraph& graph, const SpdOptions& options,
                       const std::vector<VertexId>& sources) {
  SpdOptions sequential_options = options;
  sequential_options.num_threads = 1;
  BfsSpd sequential(graph, sequential_options);
  BfsSpd parallel(graph, options);
  DependencyAccumulator sequential_acc(graph);
  DependencyAccumulator parallel_acc(graph);
  for (VertexId s : sources) {
    sequential.Run(s);
    parallel.Run(s);
    const ShortestPathDag& a = sequential.dag();
    const ShortestPathDag& b = parallel.dag();
    if (a.dist != b.dist || a.sigma != b.sigma || a.order != b.order ||
        a.level_offsets != b.level_offsets) {
      return false;
    }
    for (VertexId v : a.order) {
      const auto pa = a.predecessors(v);
      const auto pb = b.predecessors(v);
      if (pa.size() != pb.size() ||
          !std::equal(pa.begin(), pa.end(), pb.begin())) {
        return false;
      }
    }
    if (sequential_acc.Accumulate(sequential) !=
        parallel_acc.Accumulate(parallel)) {
      return false;
    }
  }
  return true;
}

constexpr char kUsage[] =
    "usage: bench_e22_intra_pass [sources_per_graph] [--smoke] [--grain=<g>]\n"
    "  sources_per_graph  spread SPD sources per graph, 1..1000000 "
    "(default 64)\n";
/// Upper bound on sources_per_graph (the source list is preallocated).
constexpr std::uint64_t kMaxSources = 1'000'000;

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t sources_per_graph = 64;
  bool smoke = false;
  SpdOptions defaults;  // shipped kernel defaults + parallel_grain
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(arg, "--grain=", 8) == 0) {
      ok = bench::ParseArg("--grain", arg + 8, 0, UINT64_MAX,
                           &defaults.parallel_grain);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      ok = false;
    } else {
      ok = bench::ParseArg("sources_per_graph", arg, 1, kMaxSources,
                           &sources_per_graph);
    }
    if (!ok) {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  bench::Banner("E22", "intra-pass scaling: frontier-parallel SPD passes "
                       "at 1/2/4/8 threads");
  if (smoke) sources_per_graph = std::min<std::uint64_t>(sources_per_graph, 8);
  bench::JsonReport json("e22");
  json.AddMeta("sources_per_graph", std::to_string(sources_per_graph));
  json.AddMeta("smoke", smoke ? "true" : "false");
  json.AddMeta("parallel_grain", std::to_string(defaults.parallel_grain));

  bool all_deterministic = true;
  Table table({"graph", "n", "m", "kernel", "threads", "passes/s",
               "fused p/s", "speedup", "fused x", "det"});

  for (const DatasetSpec& spec : DatasetRegistry()) {
    const CsrGraph graph = spec.make();
    const std::vector<VertexId> sources =
        SpreadSources(graph.num_vertices(), sources_per_graph);
    const double passes = static_cast<double>(sources.size());

    // alpha = 0 disables bottom-up levels (top-down only); the default
    // alpha lets the kernel switch direction.
    for (const bool top_down_only : {true, false}) {
      SpdOptions options = defaults;
      if (top_down_only) options.alpha = 0.0;
      double base_pps = 0.0;
      double base_fps = 0.0;
      for (unsigned threads : kThreadCounts) {
        options.num_threads = threads;
        const ThreadRun run = TimeAtThreads(graph, options, sources);
        const bool det =
            threads == 1 || MatchesSequential(graph, options, sources);
        all_deterministic = all_deterministic && det;

        const double pps = passes / run.pass_seconds;
        const double fps = passes / run.fused_seconds;
        if (threads == 1) {
          base_pps = pps;
          base_fps = fps;
        }
        table.AddRow({spec.name, FormatCount(graph.num_vertices()),
                      FormatCount(graph.num_edges()),
                      top_down_only ? "top-down" : "hybrid",
                      std::to_string(threads), FormatDouble(pps, 0),
                      FormatDouble(fps, 0),
                      FormatDouble(pps / base_pps, 2) + "x",
                      FormatDouble(fps / base_fps, 2) + "x",
                      det ? "ok" : "!DET"});
      }
    }
  }

  bench::EmitTable(
      &json,
      "E22: intra-pass thread scaling (passes/sec; speedups vs the 1-thread "
      "row of the same kernel; !DET flags a sequential-equivalence "
      "violation — must never appear)",
      table);
  const std::string written = json.Write();
  if (!written.empty()) std::printf("wrote %s\n", written.c_str());
  if (!all_deterministic) {
    // Fail the run (and the CI release-bench job): a !DET row means a
    // parallel pass diverged from the sequential kernel.
    std::fprintf(stderr,
                 "FAIL: intra-pass determinism violation (!DET)\n");
    return 1;
  }
  return 0;
}
