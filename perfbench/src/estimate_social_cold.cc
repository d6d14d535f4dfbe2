// estimate-social-cold: one caller, closed loop, sequential Estimate calls
// on one warm engine over a 100k-vertex Barabasi-Albert graph. The default
// 256 MiB dependency memo holds about 220 of the 100k passes, so nearly
// every chain step runs a fresh BFS pass plus a dependency sweep: SPD
// kernel and intra-pass thread changes show here, memo changes should not.

#include <algorithm>
#include <cmath>
#include <memory>

#include "centrality/engine.h"
#include "graph/generators.h"
#include "perfbench.h"
#include "util/rng.h"

namespace perfbench {
namespace {

struct EstimateOp {
  VertexId vertex = 0;
  mhbc::EstimateRequest request;
  double latency_ms = 0.0;
  double cpu_ms = 0.0;  ///< process CPU time (all threads) during the call
  bool traced = false;
  std::uint64_t hits = 0;  ///< memo hits during the call
  mhbc::StatusOr<mhbc::EstimateReport> report =
      mhbc::Status::FailedPrecondition("not run");
};

bool SameStatistics(const mhbc::EstimateReport& a, const mhbc::EstimateReport& b) {
  return a.value == b.value && a.samples_used == b.samples_used &&
         a.acceptance_rate == b.acceptance_rate && a.ess == b.ess &&
         a.std_error == b.std_error && a.ci_half_width == b.ci_half_width &&
         a.converged == b.converged;
}

}  // namespace

void RunEstimateSocialCold(const Options& options, Result* result,
                           Trace* trace) {
  const VertexId n = options.small ? 5'000 : 100'000;
  const std::uint64_t samples = options.small ? 16 : 32;
  const std::size_t replays = options.small ? 2 : 3;
  constexpr unsigned kThreads = 4;
  constexpr int kSetups = 3;
  mhbc::EngineOptions engine_options;
  engine_options.num_threads = kThreads;  // spd.num_threads inherits

  std::unique_ptr<CsrGraph> graph;
  std::unique_ptr<mhbc::BetweennessEngine> engine;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    engine.reset();
    graph.reset();
    SetupTimes times;
    const Clock::time_point rep_start = Clock::now();
    double cpu = ProcessCpuSeconds();
    graph = std::make_unique<CsrGraph>(mhbc::MakeBarabasiAlbert(n, 4, options.seed));
    times.generate_s = CpuLap(&cpu);
    engine = std::make_unique<mhbc::BetweennessEngine>(*graph, engine_options);
    times.construct_s = CpuLap(&cpu);
    mhbc::EstimateRequest warm;
    warm.samples = samples;
    warm.seed = options.seed ^ 0x3a3a;
    if (!engine->Estimate(0, warm).ok()) result->Fail("warm-up Estimate failed");
    times.warmup_s = CpuLap(&cpu);
    times.wall_s = SecondsSince(rep_start);
    setups.push_back(times);
  }
  EmitSetup(setups, result);

  // Operation i: estimator alternates mh / mh-rb; the target cycles hub,
  // median, peripheral, then a uniform draw; every request has its own seed.
  const Targets targets = PickTargets(*graph);
  mhbc::Rng rng(options.seed);
  std::vector<EstimateOp> ops;
  const Clock::time_point run_start = Clock::now();
  for (std::size_t i = 0; SecondsSince(run_start) < options.seconds || ops.size() < 4;
       ++i) {
    EstimateOp op;
    switch ((i / 2) % 4) {
      case 0: op.vertex = targets.hub; break;
      case 1: op.vertex = targets.median; break;
      case 2: op.vertex = targets.peripheral; break;
      default: op.vertex = rng.NextVertex(n); break;
    }
    op.request.kind = i % 2 == 0 ? mhbc::EstimatorKind::kMetropolisHastings
                                 : mhbc::EstimatorKind::kMhRaoBlackwell;
    op.request.samples = samples;
    op.request.seed = rng.NextU64();
    // Traced and untraced calls alternate in blocks of 8, so both see every
    // estimator and target class.
    op.traced = trace->enabled() && (i / 8) % 2 == 0;
    const std::uint64_t hits_before = engine->dependency_cache_hits();
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    if (op.traced) {
      ScopedSpan span(trace, "centrality.BetweennessEngine::Estimate", i);
      op.report = engine->Estimate(op.vertex, op.request);
    } else {
      op.report = engine->Estimate(op.vertex, op.request);
    }
    op.latency_ms = SecondsSince(start) * 1e3;
    op.cpu_ms = (ProcessCpuSeconds() - cpu_start) * 1e3;
    op.hits = engine->dependency_cache_hits() - hits_before;
    ops.push_back(std::move(op));
  }
  result->EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB");

  // --- metrics (untimed from here on) ----------------------------------
  std::vector<double> all_ms, traced_ms, untraced_ms, mh_ms, rb_ms, cpu_ms;
  double passes = 0.0;
  double busy_s = 0.0;
  for (const EstimateOp& op : ops) {
    busy_s += op.latency_ms / 1e3;
    if (!op.traced) cpu_ms.push_back(op.cpu_ms);
    all_ms.push_back(op.latency_ms);
    (op.traced ? traced_ms : untraced_ms).push_back(op.latency_ms);
    (op.request.kind == mhbc::EstimatorKind::kMetropolisHastings ? mh_ms : rb_ms)
        .push_back(op.latency_ms);
    if (op.report.ok()) passes += static_cast<double>(op.report.value().sp_passes);
  }
  const std::vector<double>& measured = trace->enabled() ? untraced_ms : all_ms;
  result->EndToEnd("cpu_per_op_ms", Median(cpu_ms), "ms");
  result->Report("cpu_per_op_ms", Median(cpu_ms), "ms");
  const double throughput = static_cast<double>(ops.size()) / busy_s;
  ReportLatency(result, "latency", measured);
  result->Report("latency_mh_p50_ms", Median(mh_ms), "ms");
  result->Report("latency_mh_rb_p50_ms", Median(rb_ms), "ms");
  result->Report("throughput_per_s", throughput, "1/s");

  // --- correctness gates -------------------------------------------------
  result->attempted = ops.size();
  for (const EstimateOp& op : ops) {
    if (!op.report.ok()) {
      result->Fail("Estimate failed: " + op.report.status().ToString());
      continue;
    }
    const double value = op.report.value().value;
    if (!std::isfinite(value) || value < 0.0) {
      result->Fail("implausible report for vertex " + std::to_string(op.vertex));
    }
  }
  // A seeded sample of reports replayed on a cold one-thread engine must
  // match bit for bit on every statistical field.
  mhbc::Rng pick(options.seed ^ 0x7e91a7ULL);
  mhbc::EngineOptions cold_options;
  cold_options.num_threads = 1;
  for (std::size_t r = 0; r < replays; ++r) {
    EstimateOp& op = ops[pick.NextBounded(ops.size())];
    if (!op.report.ok()) continue;
    mhbc::EstimateReport observed = op.report.value();
    if (options.inject_wrong_report && r == 0) observed.value = FlipLowBit(observed.value);
    mhbc::BetweennessEngine cold(*graph, cold_options);
    auto expected = cold.Estimate(op.vertex, op.request);
    if (!expected.ok() || !SameStatistics(observed, expected.value())) {
      result->Fail("replay mismatch for vertex " + std::to_string(op.vertex) +
                   " seed " + std::to_string(op.request.seed));
    }
  }
  result->Report("replayed_reports", static_cast<double>(replays), "count");

  // Share of dependency lookups the memo served.
  const double hits = static_cast<double>(engine->dependency_cache_hits());
  const double hit_ratio =
      hits / std::max(1.0, hits + static_cast<double>(engine->total_sp_passes()));
  result->Report("exact.oracle.hit_ratio", hit_ratio, "fraction");
  result->Report("centrality.passes_per_query",
                 passes / static_cast<double>(ops.size()), "count");

  // --- traced run: layer unit costs on the same graph, then per-op split --
  if (trace->enabled()) {
    result->Layer("exact.oracle.hit_ratio", hit_ratio, "fraction");
    result->Layer("centrality.passes_per_query",
                  passes / static_cast<double>(ops.size()), "count");
    ProbeConfig probe;
    probe.threads = kThreads;
    probe.sources = options.small ? 4 : 8;
    const LayerCosts costs =
        ProbeLayers(*graph, probe, options.seed, trace, ops.size());
    EmitLayerCosts(costs, result);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const EstimateOp& op = ops[i];
      if (!op.traced || !op.report.ok()) continue;
      const double p = static_cast<double>(op.report.value().sp_passes);
      const double total_s = op.latency_ms / 1e3;
      const double bfs = p * costs.bfs_pass_us / 1e6;
      const double sweep = p * costs.sweep_us / 1e6;
      const double oracle =
          (p * std::max(0.0, costs.oracle_miss_us - costs.bfs_pass_us - costs.sweep_us) +
           static_cast<double>(op.hits) * costs.oracle_hit_us) / 1e6;
      const double chain = static_cast<double>(op.request.samples) *
                           std::max(0.0, costs.chain_step_self_us) / 1e6;
      trace->AddBreakdown({i, "centrality.BetweennessEngine::Estimate", total_s,
                           {{"sp.bfs", bfs},
                            {"sp.sweep", sweep},
                            {"exact.oracle", oracle},
                            {"core.chain", chain},
                            {"centrality", total_s - bfs - sweep - oracle - chain}},
                           "centrality"});
    }
    FinishTrace(options, *trace, traced_ms, untraced_ms, result);
  }
}

}  // namespace perfbench
