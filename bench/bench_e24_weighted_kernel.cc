// E24 — weighted kernel scaling: wave-parallel delta-stepping SPD passes
// (sp/delta_spd.h, SpdOptions::num_threads) at 1/2/4/8 threads across the
// registry graphs with uniform [1,3] edge weights, plus the weighted
// incremental-serving payoff (selective weighted invalidation vs a cold
// rebuild).
//
// Section A — per-(graph, threads) row:
//
//   * passes/sec          — forward weighted SPD passes only,
//   * fused passes/sec    — pass + sequential dependency accumulation
//                           over the recorded settle waves (the fused
//                           weighted sweep every estimator pays),
//   * speedup / fused x   — against the 1-thread row,
//   * det                 — bit-identity gate against the 1-thread run:
//                           wdist/sigma/order/level_offsets, predecessor
//                           lists, and dependency vectors must match
//                           exactly ("!DET" must never appear; the
//                           process exits 1 if it does).
//
// Section B — incremental weighted mutate-then-re-estimate vs a cold
// rebuild, per edit-batch size: wall clock, shortest-path pass counts
// (the deterministic quantity the exit gate uses), and a per-row
// bit-identity check of every statistical report field against the cold
// engine. Before this PR weighted memos invalidated wholesale, so the
// pass ratio was pinned at ~1; the selective slack + min-incident-weight
// criterion is what this section measures.
//
//   bench_e24_weighted_kernel [sources_per_graph] [--smoke] [--grain=<g>]
//
// Defaults: 32 sources per graph, the shipped parallel_grain; --smoke
// drops to 8 sources and the small mutate dataset (the CI artifact run);
// --grain overrides the per-wave parallel cutoff (0 forces every wave
// through the sharded steps). Timing loops report the fastest-of-3 wall
// clock; the JSON twin lands in BENCH_e24.json.
// --help prints the usage and exits 0; a malformed argument or value
// ("--grain=-1", "12x") prints it and exits 2.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "centrality/engine.h"
#include "datasets/registry.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sp/delta_spd.h"
#include "sp/dependency.h"
#include "util/common.h"
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
  DeltaSpd spd(graph, options);
  DependencyAccumulator accumulator(graph);
  constexpr int kRepeats = 3;
  double best_pass = -1.0;
  double best_fused = -1.0;
  for (int r = 0; r < kRepeats; ++r) {
    WallTimer pass_timer;
    for (VertexId s : sources) spd.Run(s);
    const double pass_seconds = pass_timer.ElapsedSeconds();
    if (best_pass < 0.0 || pass_seconds < best_pass) best_pass = pass_seconds;

    WallTimer fused_timer;
    for (VertexId s : sources) {
      spd.Run(s);
      accumulator.Accumulate(spd);
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
/// the 1-thread engine exactly on every source — DAG (wdist, sigma,
/// canonical wave order, wave offsets), predecessor lists, and dependency
/// vectors.
bool MatchesSequential(const CsrGraph& graph, const SpdOptions& options,
                       const std::vector<VertexId>& sources) {
  SpdOptions sequential_options = options;
  sequential_options.num_threads = 1;
  DeltaSpd sequential(graph, sequential_options);
  DeltaSpd parallel(graph, options);
  DependencyAccumulator sequential_acc(graph);
  DependencyAccumulator parallel_acc(graph);
  for (VertexId s : sources) {
    sequential.Run(s);
    parallel.Run(s);
    const ShortestPathDag& a = sequential.dag();
    const ShortestPathDag& b = parallel.dag();
    if (a.wdist != b.wdist || a.sigma != b.sigma || a.order != b.order ||
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

bool ReportsIdentical(const EstimateReport& a, const EstimateReport& b) {
  return a.value == b.value && a.samples_used == b.samples_used &&
         a.acceptance_rate == b.acceptance_rate && a.ess == b.ess &&
         a.std_error == b.std_error && a.ci_half_width == b.ci_half_width &&
         a.converged == b.converged;
}

/// Scratch rebuild of `graph` through the ordinary construction path —
/// the cost a system with wholesale weighted invalidation effectively
/// pays (every memoized weighted pass gone).
CsrGraph RebuildFromEdges(const CsrGraph& graph) {
  GraphBuilder builder(graph.num_vertices());
  builder.set_directed(graph.directed());
  for (const CsrGraph::Edge& edge : graph.CollectEdges()) {
    builder.AddWeightedEdge(edge.u, edge.v, edge.weight);
  }
  auto built = builder.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "error: scratch rebuild failed: %s\n",
                 built.status().ToString().c_str());
  }
  MHBC_DCHECK(built.ok());
  return std::move(built).value();
}

struct MutateRow {
  double incremental_ms = 0.0;
  double cold_ms = 0.0;
  std::uint64_t incremental_passes = 0;
  std::uint64_t cold_passes = 0;
  bool identical = true;
};

/// Runs `rounds` weighted edit-then-re-estimate rounds at one batch size
/// and returns per-round averages for both serving strategies.
MutateRow RunMutateRows(const CsrGraph& start, EstimatorKind kind,
                        std::size_t batch, int rounds,
                        std::uint64_t seed_base) {
  const std::vector<VertexId> targets = [&start] {
    const bench::TargetSet t = bench::PickTargets(start);
    return std::vector<VertexId>{t.hub, t.median, t.peripheral};
  }();
  EstimateRequest request;
  request.kind = kind;
  request.samples = 2'000;
  request.seed = 0xE24;

  BetweennessEngine engine(start);
  // Warm serving state: the steady-state regime selective invalidation
  // is for.
  auto warm = engine.EstimateMany(targets, request);
  if (!warm.ok()) {
    std::fprintf(stderr, "error: %s\n", warm.status().ToString().c_str());
  }
  MHBC_DCHECK(warm.ok());

  MutateRow result;
  for (int round = 0; round < rounds; ++round) {
    const GraphDelta delta = MakeRandomEditScript(
        engine.graph(), batch, seed_base + 977 * static_cast<std::uint64_t>(round));

    const std::uint64_t passes_before = engine.total_sp_passes();
    WallTimer incremental_timer;
    MHBC_DCHECK(engine.ApplyDelta(delta).ok());
    const auto incremental = engine.EstimateMany(targets, request);
    result.incremental_ms += incremental_timer.ElapsedSeconds() * 1e3;
    result.incremental_passes += engine.total_sp_passes() - passes_before;

    WallTimer cold_timer;
    const CsrGraph scratch = RebuildFromEdges(engine.graph());
    BetweennessEngine cold(scratch);
    const auto cold_reports = cold.EstimateMany(targets, request);
    result.cold_ms += cold_timer.ElapsedSeconds() * 1e3;
    result.cold_passes += cold.total_sp_passes();

    MHBC_DCHECK(incremental.ok() && cold_reports.ok());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      result.identical = result.identical &&
                         ReportsIdentical(incremental.value()[i],
                                          cold_reports.value()[i]);
    }
  }
  result.incremental_ms /= rounds;
  result.cold_ms /= rounds;
  result.incremental_passes /= static_cast<std::uint64_t>(rounds);
  result.cold_passes /= static_cast<std::uint64_t>(rounds);
  return result;
}

constexpr char kUsage[] =
    "usage: bench_e24_weighted_kernel [sources_per_graph] [--smoke] [--grain=<g>]\n"
    "  sources_per_graph  spread SPD sources per graph, 1..1000000 "
    "(default 32)\n";
/// Upper bound on sources_per_graph (the source list is preallocated).
constexpr std::uint64_t kMaxSources = 1'000'000;

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t sources_per_graph = 32;
  bool smoke = false;
  SpdOptions defaults;  // shipped tie rule, auto bucket width, parallel_grain
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
  bench::Banner("E24", "weighted kernel: wave-parallel delta-stepping at "
                       "1/2/4/8 threads + selective weighted invalidation");
  if (smoke) sources_per_graph = std::min<std::uint64_t>(sources_per_graph, 8);
  bench::JsonReport json("e24");
  json.AddMeta("sources_per_graph", std::to_string(sources_per_graph));
  json.AddMeta("smoke", smoke ? "true" : "false");
  json.AddMeta("parallel_grain", std::to_string(defaults.parallel_grain));

  bool all_deterministic = true;
  Table table({"graph", "n", "m", "threads", "passes/s", "fused p/s",
               "speedup", "fused x", "det"});

  // Registry graphs (undirected) plus a directed stand-in: directed
  // wave-parallel passes relax out-edges forward and record predecessors
  // over the in-CSR, so the thread-scaling gate must cover that path.
  std::vector<std::pair<std::string, CsrGraph>> cases;
  for (const DatasetSpec& spec : DatasetRegistry()) {
    cases.emplace_back(spec.name,
                       AssignUniformWeights(spec.make(), 1.0, 3.0, 0xE24));
  }
  cases.emplace_back(
      "directed-lcg",
      AssignUniformWeights(MakeRandomDirected(smoke ? 2000 : 20000,
                                              smoke ? 12000 : 120000, 0xE24D),
                           1.0, 3.0, 0xE24));

  for (const auto& [name, graph] : cases) {
    const std::vector<VertexId> sources =
        SpreadSources(graph.num_vertices(), sources_per_graph);
    const double passes = static_cast<double>(sources.size());

    SpdOptions options = defaults;
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
      table.AddRow({name, FormatCount(graph.num_vertices()),
                    FormatCount(graph.num_edges()), std::to_string(threads),
                    FormatDouble(pps, 0), FormatDouble(fps, 0),
                    FormatDouble(pps / base_pps, 2) + "x",
                    FormatDouble(fps / base_fps, 2) + "x",
                    det ? "ok" : "!DET"});
    }
  }

  bench::EmitTable(
      &json,
      "E24a: weighted wave-parallel thread scaling (passes/sec; speedups vs "
      "the 1-thread row; !DET flags a sequential-equivalence violation — "
      "must never appear)",
      table);

  // Section B: selective weighted invalidation vs cold rebuild.
  const std::string mutate_dataset =
      smoke ? "community-ring-300" : "email-like-1k";
  auto base = MakeDataset(mutate_dataset);
  if (!base.ok()) {
    std::fprintf(stderr, "error: %s\n", base.status().ToString().c_str());
    return 1;
  }
  const CsrGraph weighted =
      AssignUniformWeights(base.value(), 1.0, 3.0, 0xE24);
  const int rounds = smoke ? 3 : 6;
  const std::size_t batches[] = {1, 4, 16};
  const EstimatorKind kinds[] = {EstimatorKind::kUniformSource,
                                 EstimatorKind::kMetropolisHastings};

  bool all_identical = true;
  double best_small_batch_pass_ratio = 0.0;
  Table mutate({"estimator", "edit batch", "incr ms/round", "cold ms/round",
                "speedup", "incr passes", "cold passes", "ident"});
  std::uint64_t seed = 0xE24'0000;
  for (const EstimatorKind kind : kinds) {
    for (const std::size_t batch : batches) {
      const MutateRow row = RunMutateRows(weighted, kind, batch, rounds, seed);
      seed += 0x1000;
      const double speedup =
          row.incremental_ms > 0.0 ? row.cold_ms / row.incremental_ms : 0.0;
      all_identical = all_identical && row.identical;
      if (batch <= 4 && row.incremental_passes > 0) {
        best_small_batch_pass_ratio =
            std::max(best_small_batch_pass_ratio,
                     static_cast<double>(row.cold_passes) /
                         static_cast<double>(row.incremental_passes));
      }
      mutate.AddRow({EstimatorKindName(kind), std::to_string(batch),
                     FormatDouble(row.incremental_ms, 3),
                     FormatDouble(row.cold_ms, 3),
                     FormatDouble(speedup, 2) + "x",
                     std::to_string(row.incremental_passes),
                     std::to_string(row.cold_passes),
                     row.identical ? "yes" : "NO"});
    }
  }
  bench::EmitTable(
      &json,
      "E24b: weighted incremental re-estimate vs cold rebuild on " +
          mutate_dataset + " with uniform [1,3] weights (pass counts are "
          "deterministic for fixed seeds; ident re-checks statistical "
          "bit-identity per row)",
      mutate);

  json.AddMeta("bit_identical", all_identical ? "true" : "false");
  json.AddMeta("best_small_batch_pass_ratio",
               FormatDouble(best_small_batch_pass_ratio, 2));
  json.AddMeta("mutate_dataset", mutate_dataset);
  const std::string written = json.Write();
  if (!written.empty()) std::printf("wrote %s\n", written.c_str());

  std::printf("\nbest small-batch (<=4 edits) weighted pass ratio: %.2fx on "
              "%s\n",
              best_small_batch_pass_ratio, mutate_dataset.c_str());
  if (!all_deterministic) {
    // Fail the run (and the CI release-bench job): a !DET row means a
    // wave-parallel pass diverged from the sequential kernel.
    std::fprintf(stderr, "FAIL: weighted kernel determinism violation "
                         "(!DET)\n");
    return 1;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: incremental and cold engines disagree on "
                 "statistical report fields\n");
    return 1;
  }
  // Selective weighted invalidation must actually keep passes alive on
  // small batches — ratio <= 1 means it degraded to wholesale.
  return best_small_batch_pass_ratio > 1.0 ? 0 : 2;
}
