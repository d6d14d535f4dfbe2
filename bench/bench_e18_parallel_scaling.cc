// E18 — Parallel scaling: wall-clock speedup vs thread count (1/2/4/8) for
// the two source-parallel paths, plus a multi-vertex engine query:
//
//   1. multi-chain MH     — RunMultipleChains, K independent chains
//   2. parallel Brandes   — BrandesBetweenness, source-sharded exact scores
//   3. EstimateMany       — an engine built with num_threads = t serving
//                           per-vertex queries in order on its one memo
//
// Each row also re-checks the subsystem's core promise: the values at
// t threads are bit-identical to the 1-thread run (a "!DET" speedup cell
// flags a violation and fails the run with exit 1), and reports per-pass
// throughput ("p/s": forward shortest-path passes per second — the
// hardware-independent unit estimators are priced in, and the number
// bench_e22 tracks for the intra-pass axis). The EstimateMany fan-out runs
// no parallel path, so its "passes" column must match the 1-thread row at
// every width. Speedup on a machine with fewer hardware threads than t
// tops out at the hardware (this harness reports, it does not assert).
//
//   bench_e18_parallel_scaling [n] [chains] [iterations] [many_vertices]
//
// Defaults: n=10'000 (Barabasi-Albert, m=4), 8 chains x 1'500 iterations,
// EstimateMany over 12 spread vertices at 400 samples each. Every argument
// must be a plain decimal count in its range (see --help); a bad one
// prints the usage and exits 2.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "centrality/engine.h"
#include "core/multi_chain.h"
#include "graph/generators.h"
#include "util/timer.h"

namespace {

using namespace mhbc;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

struct Run {
  double seconds = 0.0;
  std::uint64_t sp_passes = 0;  // forward passes the run executed
  bool matches_baseline = true;
};

std::string SpeedupCell(double baseline_seconds, const Run& run) {
  return FormatDouble(baseline_seconds / run.seconds, 2) + "x" +
         (run.matches_baseline ? "" : " !DET");
}

/// Per-pass throughput: forward shortest-path passes per wall-clock
/// second, the hardware-independent unit every estimator is priced in.
std::string PassesPerSecondCell(const Run& run) {
  return FormatDouble(static_cast<double>(run.sp_passes) / run.seconds, 0);
}

constexpr char kUsage[] =
    "usage: bench_e18_parallel_scaling [n] [chains] [iterations] "
    "[many_vertices]\n"
    "  n              Barabasi-Albert vertices, 5..4294967294 "
    "(default 10000)\n"
    "  chains         multi-chain MH chains, 2..4294967295 (default 8)\n"
    "  iterations     iterations per chain, >= 2 (default 1500)\n"
    "  many_vertices  EstimateMany vertices, 3..n (default 12)\n";

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }
  std::uint64_t n = 10'000;
  std::uint64_t chains = 8;
  std::uint64_t iterations = 1'500;
  std::uint64_t many_vertices = 12;
  // MakeBarabasiAlbert(n, 4) needs n >= 5; the Gelman-Rubin readout needs
  // two chains of two iterations; EstimateMany always asks for the hub,
  // median and peripheral targets.
  const bool args_ok =
      argc <= 5 &&
      (argc <= 1 ||
       bench::ParseArg("n", argv[1], 5, kInvalidVertex - 1, &n)) &&
      (argc <= 2 ||
       bench::ParseArg("chains", argv[2], 2, UINT32_MAX, &chains)) &&
      (argc <= 3 || bench::ParseArg("iterations", argv[3], 2, UINT64_MAX,
                                    &iterations)) &&
      (argc <= 4 ||
       bench::ParseArg("many_vertices", argv[4], 3, n, &many_vertices));
  if (!args_ok) {
    if (argc > 5) std::fprintf(stderr, "too many arguments\n");
    std::fputs(kUsage, stderr);
    return 2;
  }

  bench::Banner("E18", "parallel scaling vs thread count");
  const CsrGraph graph =
      MakeBarabasiAlbert(static_cast<VertexId>(n), 4, /*seed=*/0xE18);
  const bench::TargetSet targets = bench::PickTargets(graph);

  bench::JsonReport json("e18");
  json.AddMeta("n", FormatCount(graph.num_vertices()));
  json.AddMeta("m", FormatCount(graph.num_edges()));
  json.AddMeta("hardware_threads",
               std::to_string(std::thread::hardware_concurrency()));
  json.AddMeta("chains", std::to_string(chains));
  json.AddMeta("iterations", FormatCount(iterations));
  json.AddMeta("many_vertices", std::to_string(many_vertices));

  std::printf("graph: BA n=%u m=%llu, hardware threads: %u\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              std::thread::hardware_concurrency());

  // ---------------------------------------------------- multi-chain MH
  MhOptions mh_options;
  mh_options.seed = 0xE18;
  std::vector<Run> chain_runs;
  MultiChainResult chain_baseline;
  for (unsigned t : kThreadCounts) {
    WallTimer timer;
    const MultiChainResult result =
        RunMultipleChains(graph, targets.hub, iterations,
                          static_cast<std::uint32_t>(chains), mh_options,
                          /*num_threads=*/t);
    Run run;
    run.seconds = timer.ElapsedSeconds();
    run.sp_passes = result.sp_passes;
    if (t == 1) chain_baseline = result;
    run.matches_baseline =
        result.pooled_estimate == chain_baseline.pooled_estimate &&
        result.r_hat == chain_baseline.r_hat &&
        result.chain_estimates == chain_baseline.chain_estimates;
    chain_runs.push_back(run);
  }

  // ------------------------------------------------- parallel Brandes
  std::vector<Run> brandes_runs;
  std::vector<double> brandes_baseline;
  for (unsigned t : kThreadCounts) {
    WallTimer timer;
    const std::vector<double> scores =
        BrandesBetweenness(graph, Normalization::kPaper, t);
    Run run;
    run.seconds = timer.ElapsedSeconds();
    run.sp_passes = graph.num_vertices();  // one pass per source
    if (t == 1) brandes_baseline = scores;
    run.matches_baseline = scores == brandes_baseline;
    brandes_runs.push_back(run);
  }

  // ------------------------------------ EstimateMany on a t-thread engine
  std::vector<VertexId> vertices{targets.hub, targets.median,
                                 targets.peripheral};
  for (std::uint64_t i = 3; i < many_vertices; ++i) {
    vertices.push_back(static_cast<VertexId>((n * i) / many_vertices));
  }
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 400;
  request.seed = 0xE18;
  std::vector<Run> many_runs;
  std::vector<EstimateReport> many_baseline;
  for (unsigned t : kThreadCounts) {
    EngineOptions options;
    options.num_threads = t;
    BetweennessEngine engine(graph, options);
    WallTimer timer;
    const auto reports = engine.EstimateMany(vertices, request);
    Run run;
    run.seconds = timer.ElapsedSeconds();
    run.sp_passes = engine.total_sp_passes();
    if (!reports.ok()) {
      std::fprintf(stderr, "EstimateMany failed: %s\n",
                   reports.status().ToString().c_str());
      return 1;
    }
    if (t == 1) many_baseline = reports.value();
    run.matches_baseline = true;
    for (std::size_t i = 0; i < many_baseline.size(); ++i) {
      run.matches_baseline =
          run.matches_baseline &&
          reports.value()[i].value == many_baseline[i].value &&
          reports.value()[i].std_error == many_baseline[i].std_error;
    }
    many_runs.push_back(run);
  }

  Table table({"threads", "multi-chain s", "speedup", "p/s", "brandes s",
               "speedup", "p/s", "many s", "speedup", "p/s", "passes"});
  for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
    table.AddRow({std::to_string(kThreadCounts[i]),
                  FormatDouble(chain_runs[i].seconds, 3),
                  SpeedupCell(chain_runs[0].seconds, chain_runs[i]),
                  PassesPerSecondCell(chain_runs[i]),
                  FormatDouble(brandes_runs[i].seconds, 3),
                  SpeedupCell(brandes_runs[0].seconds, brandes_runs[i]),
                  PassesPerSecondCell(brandes_runs[i]),
                  FormatDouble(many_runs[i].seconds, 3),
                  SpeedupCell(many_runs[0].seconds, many_runs[i]),
                  PassesPerSecondCell(many_runs[i]),
                  FormatCount(many_runs[i].sp_passes)});
  }
  bench::EmitTable(&json,
                   "E18: wall-clock speedup + passes/sec vs 1-thread "
                   "baseline (!DET flags a determinism violation — must "
                   "never appear)",
                   table);
  const std::string written = json.Write();
  if (!written.empty()) std::printf("wrote %s\n", written.c_str());
  for (const std::vector<Run>* runs : {&chain_runs, &brandes_runs, &many_runs}) {
    for (const Run& run : *runs) {
      if (!run.matches_baseline) {
        // Fail the run (and the CI release-bench job): a !DET row means a
        // parallel path changed a statistical result.
        std::fprintf(stderr, "FAIL: thread-count determinism violation "
                             "(!DET)\n");
        return 1;
      }
    }
  }
  return 0;
}
