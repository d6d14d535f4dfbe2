// exact-road / exact-road-weighted: one caller, closed loop, each
// operation a fresh engine (4 threads) answering Estimate(v, kExact),
// which runs the source-parallel Brandes build. A 70x70 grid has
// diameter 138, so the work sits in long top-down BFS level chains with
// predecessor recording (unweighted) or in delta-stepping waves
// (weighted), plus the thread-pool merge; the oracle memo and the MH chain
// are bypassed entirely.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "centrality/engine.h"
#include "exact/brandes.h"
#include "graph/generators.h"
#include "perfbench.h"
#include "road_digests.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;

CsrGraph MakeRoad(VertexId side, bool weighted, std::uint64_t weight_seed) {
  CsrGraph grid = mhbc::MakeGrid(side, side);
  if (!weighted) return grid;
  return mhbc::AssignUniformWeights(grid, 1.0, 10.0, weight_seed);
}

bool Close(double a, double b) {
  return a == b || std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// The digest of `scores` in the committed table's form.
RoadDigest DigestOf(const std::vector<double>& scores, bool weighted,
                    std::uint64_t weight_seed, VertexId side) {
  RoadDigest d{};
  d.weighted = weighted;
  d.weight_seed = weight_seed;
  d.side = side;
  d.sum = 0.0;
  d.max = 0.0;
  for (const double s : scores) {
    d.sum += s;
    d.max = std::max(d.max, s);
  }
  mhbc::Rng rng(0xd16e57ULL + weight_seed);
  for (int i = 0; i < kDigestVertices; ++i) {
    d.vertices[i] = rng.NextVertex(static_cast<VertexId>(scores.size()));
    d.values[i] = scores[d.vertices[i]];
  }
  return d;
}

/// Compares `scores` with a reference digest; returns "" or the mismatch.
std::string CheckDigest(const std::vector<double>& scores, const RoadDigest& ref) {
  const RoadDigest got = DigestOf(scores, ref.weighted, ref.weight_seed, ref.side);
  if (!Close(got.sum, ref.sum)) return "sum differs from the reference digest";
  if (!Close(got.max, ref.max)) return "max differs from the reference digest";
  for (int i = 0; i < kDigestVertices; ++i) {
    if (got.vertices[i] != ref.vertices[i] || !Close(got.values[i], ref.values[i])) {
      return "vertex " + std::to_string(ref.vertices[i]) +
             " differs from the reference digest";
    }
  }
  return "";
}

std::vector<double> SequentialExact(const CsrGraph& graph) {
  mhbc::SpdOptions spd;
  spd.num_threads = 1;
  return mhbc::ExactBetweenness(graph, mhbc::Normalization::kPaper, spd);
}

void PrintDigest(const RoadDigest& d) {
  std::printf("    {%s, %llu, %u, %.17g, %.17g,\n     {", d.weighted ? "true" : "false",
              static_cast<unsigned long long>(d.weight_seed), d.side, d.sum, d.max);
  for (int i = 0; i < kDigestVertices; ++i) std::printf("%s%u", i ? ", " : "", d.vertices[i]);
  std::printf("},\n     {");
  for (int i = 0; i < kDigestVertices; ++i) std::printf("%s%.17g", i ? ", " : "", d.values[i]);
  std::printf("}},\n");
}

struct Build {
  VertexId vertex = 0;
  double latency_ms = 0.0;
  double cpu_ms = 0.0;  ///< process CPU time (all threads) of the build
  bool traced = false;
  std::uint64_t passes = 0;
  std::uint64_t hits = 0;
  mhbc::StatusOr<mhbc::EstimateReport> report =
      mhbc::Status::FailedPrecondition("not run");
  std::vector<double> scores;  ///< every vertex's exact score, untimed
};

}  // namespace

int PrintRoadDigests() {
  std::printf("inline constexpr RoadDigest kRoadDigests[] = {\n");
  for (const bool weighted : {false, true}) {
    PrintDigest(DigestOf(SequentialExact(MakeRoad(kRoadSide, weighted, kRoadWeightSeed)),
                         weighted, kRoadWeightSeed, kRoadSide));
  }
  std::printf("};\n");
  return 0;
}

void RunExactRoad(const Options& options, bool weighted, Result* result,
                  Trace* trace) {
  const VertexId side = options.small ? 30 : kRoadSide;
  // The weights are drawn once, not per seed: build time moved 15% between
  // weight draws, which would drown the run-to-run spread. The seed picks
  // the queried vertices.
  const std::uint64_t weight_seed = kRoadWeightSeed;
  constexpr int kSetups = 3;
  mhbc::EngineOptions engine_options;
  engine_options.num_threads = kThreads;

  // Set-up: generate the road graph, construct an engine on it and warm up
  // with one untimed build, which first-touches the memory and the pool
  // every timed build then reuses. (Without the warm-up, set-up is about a
  // millisecond, which moved 40% from run to run.)
  std::optional<CsrGraph> graph;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    graph.reset();
    SetupTimes times;
    const Clock::time_point rep_start = Clock::now();
    double cpu = ProcessCpuSeconds();
    graph.emplace(MakeRoad(side, weighted, weight_seed));
    times.generate_s = CpuLap(&cpu);
    mhbc::BetweennessEngine engine(*graph, engine_options);
    times.construct_s = CpuLap(&cpu);
    mhbc::EstimateRequest warm;
    warm.kind = mhbc::EstimatorKind::kExact;
    if (!engine.Estimate(0, warm).ok()) result->Fail("warm-up build failed");
    times.warmup_s = CpuLap(&cpu);
    times.wall_s = SecondsSince(rep_start);
    setups.push_back(times);
  }
  EmitSetup(setups, result);

  mhbc::Rng rng(options.seed);
  Trace untraced(false);
  std::vector<Build> builds;
  // Only the builds count toward the run time; the checks between them
  // are untimed.
  double built_s = 0.0;
  while (built_s < options.seconds || builds.size() < 2) {
    Build build;
    build.vertex = rng.NextVertex(graph->num_vertices());
    build.traced = trace->enabled() && builds.size() % 2 == 0;
    mhbc::EstimateRequest request;
    request.kind = mhbc::EstimatorKind::kExact;
    std::optional<mhbc::BetweennessEngine> engine;
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(build.traced ? trace : &untraced,
                      "centrality.BetweennessEngine::Estimate[exact]", builds.size());
      engine.emplace(*graph, engine_options);
      build.report = engine->Estimate(build.vertex, request);
    }
    build.latency_ms = SecondsSince(start) * 1e3;
    build.cpu_ms = (ProcessCpuSeconds() - cpu_start) * 1e3;
    built_s += build.latency_ms / 1e3;
    build.passes = engine->total_sp_passes();
    build.hits = engine->dependency_cache_hits();
    // Untimed: every vertex's score, served from the engine's cache.
    std::vector<VertexId> all(graph->num_vertices());
    for (VertexId v = 0; v < graph->num_vertices(); ++v) all[v] = v;
    auto reports = engine->EstimateMany(all, request);
    if (reports.ok()) {
      for (const mhbc::EstimateReport& r : reports.value()) build.scores.push_back(r.value);
    }
    builds.push_back(std::move(build));
  }
  result->EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB");

  std::vector<double> all_ms, traced_ms, untraced_ms, cpu_ms;
  for (const Build& b : builds) {
    all_ms.push_back(b.latency_ms);
    if (!b.traced) cpu_ms.push_back(b.cpu_ms);
    (b.traced ? traced_ms : untraced_ms).push_back(b.latency_ms);
  }
  const std::vector<double>& measured = trace->enabled() ? untraced_ms : all_ms;
  result->EndToEnd("cpu_per_op_ms", Median(cpu_ms), "ms");
  result->Report("cpu_per_op_ms", Median(cpu_ms), "ms");
  const double throughput = static_cast<double>(builds.size()) / built_s;
  result->Report(weighted ? "exact_weighted_s" : "exact_unweighted_s",
                 Median(measured) / 1e3, "s");
  ReportLatency(result, "latency", measured);
  result->Report("throughput_per_s", throughput, "1/s");

  // --- correctness gates ---------------------------------------------------
  // Every build in the run is bit-identical, and the first matches the
  // committed digest of the sequential ExactBetweenness (computed here for
  // the small test configuration, which has no committed digest).
  result->attempted = builds.size();
  std::optional<RoadDigest> reference;
  for (const RoadDigest& d : kRoadDigests) {
    if (d.weighted == weighted && d.side == side && d.weight_seed == weight_seed) {
      reference = d;
    }
  }
  if (!reference) {
    reference = DigestOf(SequentialExact(*graph), weighted, weight_seed, side);
    result->Meta("reference_digest", "computed in-process (no committed digest)");
  } else {
    result->Meta("reference_digest", "committed (road_digests.h)");
  }
  if (options.inject_wrong_report && !builds.empty() && !builds[0].scores.empty()) {
    double& v = builds[0].scores[reference->vertices[0]];
    v = FlipLowBit(v);
  }
  for (std::size_t i = 0; i < builds.size(); ++i) {
    const Build& b = builds[i];
    if (!b.report.ok() || b.scores.size() != graph->num_vertices()) {
      result->Fail("exact build " + std::to_string(i) + " failed");
      continue;
    }
    if (b.report.value().value != b.scores[b.vertex]) {
      result->Fail("build " + std::to_string(i) + ": Estimate disagrees with EstimateMany");
    } else if (i == 0) {
      const std::string mismatch = CheckDigest(b.scores, *reference);
      if (!mismatch.empty()) result->Fail("build 0: " + mismatch);
    } else if (std::memcmp(b.scores.data(), builds[0].scores.data(),
                           b.scores.size() * sizeof(double)) != 0) {
      result->Fail("build " + std::to_string(i) + " is not bit-identical to build 0");
    }
  }

  const double passes_per_query = static_cast<double>(builds.front().passes);
  const double hit_ratio =
      static_cast<double>(builds.front().hits) /
      std::max(1.0, static_cast<double>(builds.front().hits) + passes_per_query);
  result->Report("centrality.passes_per_query", passes_per_query, "count");
  result->Report("exact.oracle.hit_ratio", hit_ratio, "fraction");

  if (trace->enabled()) {
    result->Layer("centrality.passes_per_query", passes_per_query, "count");
    result->Layer("exact.oracle.hit_ratio", hit_ratio, "fraction");
    ProbeConfig probe;
    probe.threads = kThreads;
    probe.sources = options.small ? 4 : 8;
    probe.rank_iterations = 200;
    const LayerCosts costs = ProbeLayers(*graph, probe, options.seed, trace, builds.size());
    EmitLayerCosts(costs, result);
    // Brandes runs one-thread passes on each of its workers.
    const double pass_us = weighted ? costs.delta_pass_1t_us : costs.bfs_pass_1t_us;
    const double sweep_us = weighted ? costs.delta_sweep_1t_us : costs.sweep_1t_us;
    const double n = static_cast<double>(graph->num_vertices());
    std::vector<double> efficiency;
    for (std::size_t i = 0; i < builds.size(); ++i) {
      const Build& b = builds[i];
      const double total_s = b.latency_ms / 1e3;
      efficiency.push_back(n * (pass_us + sweep_us) / 1e6 / (kThreads * total_s));
      if (!b.traced) continue;
      const double pass_s = n * pass_us / 1e6 / kThreads;
      const double sweep_s = n * sweep_us / 1e6 / kThreads;
      trace->AddBreakdown({i, "centrality.BetweennessEngine::Estimate[exact]", total_s,
                           {{weighted ? "sp.delta" : "sp.bfs", pass_s},
                            {"sp.sweep", sweep_s},
                            {"exact.brandes", total_s - pass_s - sweep_s}},
                           "exact.brandes"});
    }
    result->Report("exact.brandes.parallel_efficiency", Median(efficiency), "fraction");
    FinishTrace(options, *trace, traced_ms, untraced_ms, result);
  }
}

}  // namespace perfbench
