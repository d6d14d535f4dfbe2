#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "core/mh_betweenness.h"
#include "exact/dependency_oracle.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "perfbench.h"
#include "serve/protocol.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"
#include "sp/dependency.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Keeps probe results observable so the timed calls cannot be elided.
volatile double g_sink = 0.0;

template <typename F>
double TimedUs(Trace* trace, const char* name, std::uint64_t op,
               std::int64_t parent, F&& call) {
  ScopedSpan span(trace, name, op, parent);
  const Clock::time_point start = Clock::now();
  call();
  return SecondsSince(start) * 1e6;
}

mhbc::SpdOptions Spd(unsigned threads) {
  mhbc::SpdOptions spd;
  spd.num_threads = threads;
  return spd;
}

}  // namespace

LayerCosts ProbeLayers(const CsrGraph& graph, const ProbeConfig& config,
                       std::uint64_t seed, Trace* trace, std::uint64_t op) {
  ScopedSpan root(trace, "probe", op);
  const std::int64_t parent = root.id();
  LayerCosts costs;
  mhbc::Rng rng(seed ^ 0x70be5eedULL);
  const std::vector<VertexId> sources = DistinctVertices(
      graph.num_vertices(),
      std::min<std::size_t>(config.sources, graph.num_vertices()), &rng);

  // --- sp: BFS passes and the dependency sweep ---------------------------
  {
    mhbc::BfsSpd bfs1(graph, Spd(1));
    mhbc::BfsSpd bfs4(graph, Spd(4));
    mhbc::BfsSpd bfsw(graph, Spd(config.threads));
    mhbc::DependencyAccumulator acc1(graph);
    mhbc::DependencyAccumulator accw(graph, bfsw.intra_pool());
    bfs1.Run(sources.front());  // untimed: sizes the scratch
    bfs4.Run(sources.front());
    bfsw.Run(sources.front());
    // One loop per thread setting, each pass followed by its sweep as in
    // the engine, so no loop runs on caches another setting left behind.
    std::vector<double> t1, t4, tw, s1, sw;
    double edges = 0.0, bottom_up = 0.0, levels = 0.0;
    for (const VertexId s : sources) {
      t1.push_back(TimedUs(trace, "sp.BfsSpd::Run[1t]", op, parent,
                           [&] { bfs1.Run(s); }));
      s1.push_back(TimedUs(trace, "sp.DependencyAccumulator::Accumulate[1t]",
                           op, parent, [&] { g_sink = acc1.Accumulate(bfs1)[s]; }));
    }
    for (const VertexId s : sources) {
      t4.push_back(TimedUs(trace, "sp.BfsSpd::Run[4t]", op, parent,
                           [&] { bfs4.Run(s); }));
    }
    for (const VertexId s : sources) {
      tw.push_back(TimedUs(trace, "sp.BfsSpd::Run", op, parent,
                           [&] { bfsw.Run(s); }));
      sw.push_back(TimedUs(trace, "sp.DependencyAccumulator::Accumulate", op,
                           parent, [&] { g_sink = accw.Accumulate(bfsw)[s]; }));
      const mhbc::BfsSpd::Stats& stats = bfsw.last_stats();
      edges += static_cast<double>(stats.edges_examined);
      bottom_up += stats.bottom_up_levels;
      levels += stats.top_down_levels + stats.bottom_up_levels;
    }
    costs.bfs_pass_us = Median(tw);
    costs.bfs_pass_1t_us = Median(t1);
    costs.bfs_pass_4t_us = Median(t4);
    costs.sweep_us = Median(sw);
    costs.sweep_1t_us = Median(s1);
    costs.edges_per_pass = edges / static_cast<double>(sources.size());
    costs.bottom_up_share = levels > 0.0 ? bottom_up / levels : 0.0;
  }

  // --- sp: delta-stepping passes (the graph, or its weighted twin) -------
  {
    std::optional<CsrGraph> twin;
    if (!graph.weighted()) twin = mhbc::AssignUniformWeights(graph, 1.0, 10.0, seed);
    const CsrGraph& weighted = twin ? *twin : graph;
    mhbc::DeltaSpd delta1(weighted, Spd(1));
    mhbc::DeltaSpd deltaw(weighted, Spd(config.threads));
    mhbc::DependencyAccumulator acc1(weighted);
    delta1.Run(sources.front());
    deltaw.Run(sources.front());
    std::vector<double> t1, s1, tw;
    double waves = 0.0, scans = 0.0, edges = 0.0;
    for (const VertexId s : sources) {
      t1.push_back(TimedUs(trace, "sp.DeltaSpd::Run[1t]", op, parent,
                           [&] { delta1.Run(s); }));
      s1.push_back(TimedUs(trace, "sp.DependencyAccumulator::Accumulate[delta,1t]",
                           op, parent, [&] { g_sink = acc1.Accumulate(delta1)[s]; }));
    }
    for (const VertexId s : sources) {
      tw.push_back(TimedUs(trace, "sp.DeltaSpd::Run", op, parent,
                           [&] { deltaw.Run(s); }));
      const mhbc::DeltaSpd::Stats& stats = deltaw.last_stats();
      waves += stats.waves;
      scans += static_cast<double>(stats.bucket_entries_scanned);
      edges += static_cast<double>(stats.edges_examined);
    }
    costs.delta_pass_us = Median(tw);
    costs.delta_pass_1t_us = Median(t1);
    costs.delta_sweep_1t_us = Median(s1);
    costs.delta_waves_per_pass = waves / static_cast<double>(sources.size());
    costs.delta_bucket_scans_per_edge = edges > 0.0 ? scans / edges : 0.0;
  }

  // --- exact: the dependency oracle's miss and hit paths ------------------
  {
    mhbc::DependencyOracle oracle(graph, Spd(config.threads));
    oracle.set_cache_capacity(sources.size());
    std::vector<double> miss, hit;
    for (const VertexId s : sources) {
      miss.push_back(TimedUs(trace, "exact.DependencyOracle::Dependencies[miss]",
                             op, parent, [&] { g_sink = oracle.Dependencies(s)[s]; }));
      hit.push_back(TimedUs(trace, "exact.DependencyOracle::Dependencies[hit]",
                            op, parent, [&] { g_sink = oracle.Dependencies(s)[s]; }));
    }
    costs.oracle_miss_us = Median(miss);
    costs.oracle_hit_us = Median(hit);
  }

  const Targets targets = PickTargets(graph);

  // --- core: the MH chain on memo hits alone -------------------------------
  // A first, untimed run memoizes every source the chain visits; the timed
  // rerun of the same chain (same seed) then runs no pass, so its time is
  // the chain's own steps plus memo hits at the measured hit cost.
  {
    mhbc::DependencyOracle oracle(graph, Spd(config.threads));
    oracle.set_cache_capacity(static_cast<std::size_t>(
        std::min<std::uint64_t>(graph.num_vertices(), config.chain_iterations + 2)));
    mhbc::MhOptions mh;
    mh.seed = seed;
    mhbc::MhBetweennessSampler sampler(graph, mh, &oracle);
    g_sink = sampler.Run(targets.median, config.chain_iterations).estimate;
    sampler.Reset(seed);
    const std::uint64_t passes_before = oracle.num_passes();
    const std::uint64_t hits_before = oracle.cache_hits();
    const double run_us = TimedUs(trace, "core.MhBetweennessSampler::Run", op,
                                  parent, [&] {
      g_sink = sampler.Run(targets.median, config.chain_iterations).estimate;
    });
    const double passes_us =
        static_cast<double>(oracle.num_passes() - passes_before) * costs.oracle_miss_us +
        static_cast<double>(oracle.cache_hits() - hits_before) * costs.oracle_hit_us;
    costs.chain_step_self_us =
        (run_us - passes_us) / static_cast<double>(config.chain_iterations);
  }

  // --- core / centrality: engine calls on a warm engine -------------------
  {
    mhbc::EngineOptions engine_options;
    engine_options.num_threads = config.threads;
    mhbc::BetweennessEngine engine(graph, engine_options);
    const std::vector<VertexId> rank_targets = {targets.hub, targets.median,
                                                targets.peripheral, sources.back()};
    const std::vector<VertexId> many = {targets.hub, targets.median,
                                        targets.peripheral};
    mhbc::EstimateRequest request;
    if (config.warm_samples > 0) {
      request.kind = mhbc::EstimatorKind::kUniformSource;
      request.samples = config.warm_samples;
      (void)engine.Estimate(0, request);
      request.kind = mhbc::EstimatorKind::kMetropolisHastings;
    }
    request.samples = config.estimate_samples;
    // The first call of each kind is untimed (lazy state, first passes).
    request.seed = seed + 1;
    (void)engine.EstimateMany(many, request);
    request.seed = seed + 2;
    costs.estimate_many_ms = TimedUs(trace, "centrality.BetweennessEngine::EstimateMany",
                                     op, parent, [&] {
      g_sink = engine.EstimateMany(many, request).value()[0].value;
    }) / 1e3;
    (void)engine.RankTargets(rank_targets, config.rank_iterations, seed + 3);
    costs.rank_ms = TimedUs(trace, "core.BetweennessEngine::RankTargets", op,
                            parent, [&] {
      g_sink = static_cast<double>(
          engine.RankTargets(rank_targets, config.rank_iterations, seed + 4)
              .value()[0]);
    }) / 1e3;
    const mhbc::GraphDelta delta = mhbc::MakeRandomEditScript(graph, 3, seed);
    costs.apply_delta_ms = TimedUs(trace, "centrality.BetweennessEngine::ApplyDelta",
                                   op, parent, [&] {
      g_sink = engine.ApplyDelta(delta).ok() ? 1.0 : 0.0;
    }) / 1e3;
  }

  // --- serve: request parsing and response formatting ---------------------
  {
    const std::string line =
        "{\"id\": 7, \"method\": \"estimate\", \"graph\": \"g\", \"vertices\": [" +
        std::to_string(targets.hub) + ", " + std::to_string(targets.median) +
        ", " + std::to_string(targets.peripheral) +
        "], \"samples\": 200, \"seed\": " + std::to_string(seed) + "}";
    constexpr int kReps = 2000;
    mhbc::serve::ServeRequest parsed;
    mhbc::serve::ServeError error;
    costs.parse_us = TimedUs(trace, "serve.ParseServeRequest", op, parent, [&] {
      for (int i = 0; i < kReps; ++i) {
        g_sink = mhbc::serve::ParseServeRequest(line, std::size_t{1} << 20,
                                                &parsed, &error) ? 1.0 : 0.0;
      }
    }) / kReps;
    std::vector<mhbc::serve::WireReport> reports(3);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      reports[i].vertex = parsed.vertices[i];
      reports[i].value = 1.0 / (3.0 + static_cast<double>(i));
      reports[i].std_error = reports[i].value / 7.0;
      reports[i].ci_half_width = 1.96 * reports[i].std_error;
      reports[i].ess = 123.456;
      reports[i].acceptance_rate = 0.4321;
      reports[i].samples_used = 200;
    }
    costs.format_us = TimedUs(trace, "serve.FormatOkResponse", op, parent, [&] {
      for (int i = 0; i < kReps; ++i) {
        g_sink = static_cast<double>(
            mhbc::serve::FormatOkResponse(parsed, 3, 1.25,
                                          mhbc::serve::FormatEstimateResult(reports))
                .size());
      }
    }) / kReps;
  }
  return costs;
}

void EmitLayerCosts(const LayerCosts& c, Result* result) {
  result->Layer("sp.bfs.pass_us", c.bfs_pass_us, "us");
  result->Layer("sp.bfs.edges_per_pass", c.edges_per_pass, "count");
  result->Layer("sp.bfs.bottom_up_share", c.bottom_up_share, "fraction");
  result->Layer("sp.bfs.intra_pass_speedup",
                c.bfs_pass_4t_us > 0.0 ? c.bfs_pass_1t_us / c.bfs_pass_4t_us : 0.0,
                "x");
  result->Layer("sp.sweep_us", c.sweep_us, "us");
  result->Layer("sp.delta.pass_us", c.delta_pass_us, "us");
  result->Layer("sp.delta.waves_per_pass", c.delta_waves_per_pass, "count");
  result->Layer("sp.delta.bucket_scans_per_edge", c.delta_bucket_scans_per_edge,
                "ratio");
  result->Layer("exact.oracle.miss_us", c.oracle_miss_us, "us");
  result->Layer("exact.oracle.hit_us", c.oracle_hit_us, "us");
  result->Layer("core.chain.step_self_us", c.chain_step_self_us, "us");
  result->Layer("core.joint.rank_ms", c.rank_ms, "ms");
  result->Layer("centrality.estimate_many_ms", c.estimate_many_ms, "ms");
  result->Layer("centrality.apply_delta_ms", c.apply_delta_ms, "ms");
  result->Layer("serve.parse_us", c.parse_us, "us");
  result->Layer("serve.format_us", c.format_us, "us");
}

}  // namespace perfbench
