// serve-mixed: requests through Server::Call (the daemon's entry point) on
// a catalog holding registry graph email-like-1k with the daemon's
// defaults (2 sessions, 2 workers, queue 64, default engines). Open loop:
// a seeded schedule, two caller threads, three offered rates, each request
// timed from its due time. The memo holds the whole working set, so reads
// are chain-, protocol- and queue-bound, while writes drop memo entries and
// drain readers.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "centrality/engine.h"
#include "datasets/registry.h"
#include "graph/dynamic_graph.h"
#include "perfbench.h"
#include "serve/catalog.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using mhbc::serve::ServeResponse;
using mhbc::serve::WireReport;

// Offered rates (requests/s, stats probes excluded) and the p99 latency
// limit, fixed from the capacity measured on a 4-core host (see
// README.md). They are also recorded in BENCHMARK.json.
constexpr double kRates[3] = {75.0, 150.0, 225.0};
constexpr double kP99LimitMs = 250.0;
constexpr double kSmallRates[3] = {50.0, 100.0, 150.0};
constexpr std::size_t kMiddleRung = 1;
/// Share of the run each rate gets; the middle rate, whose reads give the
/// gated median and the p99, gets half.
constexpr double kRungShare[3] = {0.25, 0.5, 0.25};

constexpr double kShareEstimate = 0.89;
constexpr double kShareRank = 0.10;  // the rest (1%) are mutations
constexpr std::uint64_t kEstimateSamples = 200;
constexpr std::uint64_t kRankIterations = 2000;
constexpr std::size_t kEditsPerMutation = 3;
constexpr double kStatsProbesPerSecond = 20.0;
constexpr std::size_t kCallers = 2;
const char* const kGraph = "email-like-1k";

enum class Kind { kEstimate, kRank, kMutate, kStats };

struct Request {
  std::size_t rung = 0;
  double due_s = 0.0;  ///< from the start of its rung
  Kind kind = Kind::kEstimate;
  std::size_t caller = 0;
  std::uint64_t id = 0;
  std::vector<VertexId> vertices;
  std::uint64_t seed = 0;
  std::size_t mutation = 0;  ///< index into the delta chain
  std::string line;
};

struct Outcome {
  double lateness_ms = 0.0;  ///< send time minus due time
  double latency_ms = 0.0;   ///< completion minus due time
  std::string response;
  bool direct_mutate = false;   ///< traced run: GraphEntry::Mutate, no wire
  bool direct_ok = false;
  std::uint64_t direct_epoch = 0;
  double lease_wait_ms = -1.0;  ///< traced stats probes only
  bool traced = false;          ///< traced run: wrapped in a span
};

std::string DeltaToText(const mhbc::GraphDelta& delta) {
  std::string text;
  for (const mhbc::GraphEdit& edit : delta.edits()) {
    switch (edit.kind) {
      case mhbc::GraphEdit::Kind::kAddEdge:
        text += "add " + std::to_string(edit.u) + " " + std::to_string(edit.v);
        break;
      case mhbc::GraphEdit::Kind::kRemoveEdge:
        text += "remove " + std::to_string(edit.u) + " " + std::to_string(edit.v);
        break;
      case mhbc::GraphEdit::Kind::kAddVertex:
        text += "addvertex";
        break;
    }
    text += "\\n";
  }
  return text;
}

std::string VertexList(const std::vector<VertexId>& vertices) {
  std::string out;
  for (const VertexId v : vertices) out += (out.empty() ? "" : ", ") + std::to_string(v);
  return out;
}

/// The seeded open-loop schedule: random arrivals per rung, with an exact
/// count and mix, plus evenly
/// spaced stats probes, which a third thread sends so that they sample
/// the server independently of the callers. Mutations all go to caller 0,
/// in order, so the delta chain applies as generated.
std::vector<Request> MakeSchedule(std::uint64_t seed, VertexId n, const double* rates,
                                  double run_s, std::size_t* mutations) {
  mhbc::Rng rng(seed);
  std::vector<Request> schedule;
  std::uint64_t id = 1;
  *mutations = 0;
  for (std::size_t rung = 0; rung < 3; ++rung) {
    const double rung_s = run_s * kRungShare[rung];
    std::vector<Request> rung_requests;
    std::size_t turn = 0;
    // A Poisson process conditioned on its count: exactly rate x duration
    // arrivals at sorted uniform times, so the offered load is the same for
    // every seed.
    std::vector<double> arrivals(static_cast<std::size_t>(rates[rung] * rung_s));
    for (double& t : arrivals) t = rng.NextDouble() * rung_s;
    std::sort(arrivals.begin(), arrivals.end());
    // The mix is exact too, in a seeded order: a mutation flushes most of a
    // session's memo, so a varying write count would move the cost per
    // request from seed to seed.
    std::vector<Kind> kinds(arrivals.size(), Kind::kEstimate);
    const auto share = [&](double fraction) {
      return static_cast<std::size_t>(fraction * static_cast<double>(kinds.size()) + 0.5);
    };
    const std::size_t ranks = share(kShareRank);
    const std::size_t writes = share(1.0 - kShareEstimate - kShareRank);
    std::fill_n(kinds.begin(), ranks, Kind::kRank);
    std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(ranks), writes, Kind::kMutate);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.NextBounded(i)]);
    }
    for (std::size_t a = 0; a < arrivals.size(); ++a) {
      Request r;
      r.rung = rung;
      r.due_s = arrivals[a];
      r.id = id++;
      r.seed = rng.NextU64() >> 12;
      r.kind = kinds[a];
      const std::string head = "{\"id\": " + std::to_string(r.id) + ", \"method\": \"";
      if (r.kind == Kind::kEstimate) {
        r.vertices = DistinctVertices(n, 3, &rng);
        r.line = head + "estimate\", \"graph\": \"" + kGraph + "\", \"vertices\": [" +
                 VertexList(r.vertices) + "], \"samples\": " +
                 std::to_string(kEstimateSamples) + ", \"seed\": " + std::to_string(r.seed) + "}";
      } else if (r.kind == Kind::kRank) {
        r.vertices = DistinctVertices(n, 4, &rng);
        r.line = head + "rank\", \"graph\": \"" + kGraph + "\", \"vertices\": [" +
                 VertexList(r.vertices) + "], \"iterations\": " +
                 std::to_string(kRankIterations) + ", \"seed\": " + std::to_string(r.seed) + "}";
      } else {
        r.mutation = (*mutations)++;
      }
      r.caller = r.kind == Kind::kMutate ? 0 : turn++ % kCallers;
      rung_requests.push_back(std::move(r));
    }
    const double probe_gap = 1.0 / kStatsProbesPerSecond;
    for (double t = probe_gap / 2; t < rung_s; t += probe_gap) {
      Request r;
      r.rung = rung;
      r.due_s = t;
      r.kind = Kind::kStats;
      r.id = id++;
      r.caller = kCallers;  // the probe thread, so the samples are unbiased
      r.line = "{\"id\": " + std::to_string(r.id) + ", \"method\": \"stats\"}";
      rung_requests.push_back(std::move(r));
    }
    std::stable_sort(rung_requests.begin(), rung_requests.end(),
                     [](const Request& a, const Request& b) { return a.due_s < b.due_s; });
    for (Request& r : rung_requests) schedule.push_back(std::move(r));
  }
  return schedule;
}

struct Daemon {
  std::unique_ptr<mhbc::serve::GraphCatalog> catalog;
  std::unique_ptr<mhbc::serve::Server> server;  // declared last: destroyed first
};

bool SameStatistics(const WireReport& wire, const mhbc::EstimateReport& cold) {
  return wire.value == cold.value && wire.std_error == cold.std_error &&
         wire.ci_half_width == cold.ci_half_width && wire.ess == cold.ess &&
         wire.acceptance_rate == cold.acceptance_rate &&
         wire.samples_used == cold.samples_used && wire.converged == cold.converged;
}

double ElapsedMs(const ServeResponse& response) {
  const mhbc::serve::JsonValue* elapsed = response.body.Find("elapsed_ms");
  return elapsed != nullptr ? elapsed->number_value : 0.0;
}

/// Passes and memo hits over every session of the graph (holds all leases
/// at once, so call it only while the server is idle).
std::pair<std::uint64_t, std::uint64_t> SessionCounters(mhbc::serve::GraphEntry* entry,
                                                        std::size_t sessions) {
  std::vector<mhbc::serve::ReadLease> leases;
  std::uint64_t passes = 0, hits = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    leases.push_back(entry->AcquireRead());
    passes += leases.back().engine().total_sp_passes();
    hits += leases.back().engine().dependency_cache_hits();
  }
  return {passes, hits};
}

}  // namespace

void RunServeMixed(const Options& options, Result* result, Trace* trace) {
  constexpr std::size_t kSessions = 2;
  constexpr int kSetups = 3;
  const double* rates = options.small ? kSmallRates : kRates;

  // --- set-up: graph, catalog + server, warm session memos ---------------
  std::optional<CsrGraph> graph;
  Daemon daemon;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    daemon.server.reset();
    daemon.catalog.reset();
    graph.reset();
    SetupTimes times;
    const Clock::time_point rep_start = Clock::now();
    double cpu = ProcessCpuSeconds();
    auto made = mhbc::MakeDataset(kGraph);
    if (!made.ok()) {
      result->Fail("MakeDataset failed: " + made.status().ToString());
      return;
    }
    graph.emplace(std::move(made).value());
    times.generate_s = CpuLap(&cpu);
    daemon.catalog = std::make_unique<mhbc::serve::GraphCatalog>();
    if (!daemon.catalog->AddGraph(kGraph, *graph, mhbc::EngineOptions(), kSessions).ok()) {
      result->Fail("catalog set-up failed");
      return;
    }
    daemon.server = std::make_unique<mhbc::serve::Server>(daemon.catalog.get(),
                                                          mhbc::serve::ServerOptions());
    times.construct_s = CpuLap(&cpu);
    // Warm-up: a uniform-source estimate with 4n samples on every session
    // memoizes ~98% of all sources, as a daemon that has served a while.
    {
      std::vector<mhbc::serve::ReadLease> leases;
      for (std::size_t s = 0; s < kSessions; ++s) {
        leases.push_back(daemon.catalog->Find(kGraph)->AcquireRead());
        mhbc::EstimateRequest warm;
        warm.kind = mhbc::EstimatorKind::kUniformSource;
        warm.samples = 4ULL * graph->num_vertices();
        warm.seed = options.seed + s;
        if (!leases.back().engine().Estimate(0, warm).ok()) result->Fail("warm-up failed");
      }
    }
    times.warmup_s = CpuLap(&cpu);
    times.wall_s = SecondsSince(rep_start);
    setups.push_back(times);
  }
  EmitSetup(setups, result);

  mhbc::serve::GraphEntry* entry = daemon.catalog->Find(kGraph);
  mhbc::serve::Server& server = *daemon.server;
  const VertexId n = graph->num_vertices();

  // --- inputs: the schedule and the delta chain with per-epoch snapshots --
  std::size_t mutations = 0;
  const std::vector<Request> schedule =
      MakeSchedule(options.seed, n, rates, options.seconds, &mutations);
  std::vector<mhbc::GraphDelta> deltas;
  std::vector<CsrGraph> snapshots;
  {
    mhbc::DynamicGraph dyn(*graph);
    snapshots.push_back(dyn.Csr());
    for (std::size_t i = 0; i < mutations; ++i) {
      const mhbc::GraphDelta delta =
          mhbc::MakeRandomEditScript(dyn.Csr(), kEditsPerMutation, options.seed * 7919 + i);
      if (!dyn.Apply(delta).ok()) {
        result->Fail("delta chain generation failed");
        return;
      }
      deltas.push_back(delta);
      snapshots.push_back(dyn.Csr());
    }
  }
  const auto [passes_before, hits_before] = SessionCounters(entry, kSessions);

  // --- the open loop: one rung at a time, two callers -------------------
  std::vector<Outcome> outcomes(schedule.size());
  std::vector<std::string> mutate_text(mutations);
  for (const Request& r : schedule) {
    if (r.kind == Kind::kMutate) {
      mutate_text[r.mutation] = "{\"id\": " + std::to_string(r.id) +
                                ", \"method\": \"mutate\", \"graph\": \"" + kGraph +
                                "\", \"edits\": \"" + DeltaToText(deltas[r.mutation]) + "\"}";
    }
  }
  std::vector<double> rung_wall_s(3, 0.0);
  std::vector<double> rung_cpu_s(3, 0.0);
  for (std::size_t rung = 0; rung < 3; ++rung) {
    double cpu = ProcessCpuSeconds();
    const Clock::time_point rung_start = Clock::now();
    auto caller = [&](std::size_t me, Trace* spans) {
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Request& r = schedule[i];
        if (r.rung != rung || r.caller != me) continue;
        const Clock::time_point due =
            rung_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(r.due_s));
        std::this_thread::sleep_until(due);
        Outcome& out = outcomes[i];
        const Clock::time_point sent = Clock::now();
        out.lateness_ms = SecondsBetween(due, sent) * 1e3;
        const std::string& line =
            r.kind == Kind::kMutate ? mutate_text[r.mutation] : r.line;
        if (spans == nullptr) {
          out.response = server.Call(line);
        } else if (r.kind == Kind::kMutate && r.mutation % 2 == 1) {
          // Traced run: every other mutation goes straight to the catalog,
          // which times the drain of in-flight readers plus the apply.
          ScopedSpan span(spans, "serve.GraphEntry::Mutate", r.id);
          out.direct_mutate = true;
          out.direct_ok = entry->Mutate(deltas[r.mutation]).ok();
          out.direct_epoch = entry->Stats().epoch;
        } else if (r.kind == Kind::kStats) {
          out.response = server.Call(line);
          ScopedSpan span(spans, "serve.GraphEntry::AcquireRead", r.id);
          const Clock::time_point asked = Clock::now();
          mhbc::serve::ReadLease lease = entry->AcquireRead();
          out.lease_wait_ms = SecondsSince(asked) * 1e3;
        } else if (r.id % 2 == 0) {
          out.traced = true;
          ScopedSpan span(spans, "serve.Server::Call", r.id);
          out.response = server.Call(line);
        } else {
          out.response = server.Call(line);
        }
        out.latency_ms = SecondsSince(due) * 1e3;
      }
    };
    // Each caller keeps its own spans (a Trace is single-threaded); they
    // are appended to the run's trace once the callers have joined.
    std::vector<std::unique_ptr<Trace>> caller_traces;
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c <= kCallers; ++c) {
      caller_traces.push_back(std::make_unique<Trace>(trace->enabled(), trace->origin()));
    }
    for (std::size_t c = 0; c <= kCallers; ++c) {
      callers.emplace_back(caller, c, trace->enabled() ? caller_traces[c].get() : nullptr);
    }
    for (std::thread& t : callers) t.join();
    rung_wall_s[rung] = SecondsSince(rung_start);
    rung_cpu_s[rung] = CpuLap(&cpu);
    for (const auto& t : caller_traces) trace->Append(*t);
  }
  result->EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB");
  const mhbc::serve::ServerStats server_stats = server.Stats();
  const auto [passes_after, hits_after] = SessionCounters(entry, kSessions);

  // --- correctness gates: protocol, epochs, replays ------------------------
  std::vector<std::uint64_t> last_epoch(kCallers + 1, 0);
  std::vector<ServeResponse> parsed(schedule.size());
  std::vector<bool> good(schedule.size(), false);
  std::size_t attempted = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Request& r = schedule[i];
    const Outcome& out = outcomes[i];
    ++attempted;
    if (out.direct_mutate) {
      if (!out.direct_ok || out.direct_epoch != r.mutation + 1) {
        result->Fail("direct mutation " + std::to_string(r.mutation) + " failed");
      } else {
        good[i] = true;
        last_epoch[r.caller] = out.direct_epoch;
      }
      continue;
    }
    auto response = mhbc::serve::ParseServeResponse(out.response);
    if (!response.ok()) {
      result->Fail("unparseable response to request " + std::to_string(r.id));
      continue;
    }
    const ServeResponse& resp = response.value();
    if (!resp.ok) {
      result->Fail("request " + std::to_string(r.id) + " answered with error: " + resp.message);
      continue;
    }
    std::string problem;
    if (!resp.has_id || resp.id != r.id) problem = "id not echoed";
    if (r.kind == Kind::kStats) {
      if (!problem.empty()) result->Fail("stats: " + problem);
      parsed[i] = resp;
      good[i] = problem.empty();
      continue;
    }
    if (resp.epoch < last_epoch[r.caller] || resp.epoch > mutations) {
      problem = "epoch " + std::to_string(resp.epoch) + " out of order";
    }
    if (r.kind == Kind::kEstimate) {
      if (resp.reports.size() != r.vertices.size()) problem = "wrong report count";
      for (std::size_t v = 0; problem.empty() && v < resp.reports.size(); ++v) {
        const WireReport& w = resp.reports[v];
        if (w.vertex != r.vertices[v] || !std::isfinite(w.value) || w.value < 0.0 ||
            w.samples_used != kEstimateSamples) {
          problem = "malformed report";
        }
      }
    } else if (r.kind == Kind::kRank) {
      const mhbc::serve::JsonValue* res = resp.body.Find("result");
      const mhbc::serve::JsonValue* order = res ? res->Find("order") : nullptr;
      std::vector<VertexId> ranked;
      if (order != nullptr && order->is_array()) {
        for (const auto& item : order->array) {
          std::uint64_t v = 0;
          if (item.AsUint64(&v)) ranked.push_back(static_cast<VertexId>(v));
        }
      }
      std::vector<VertexId> want = r.vertices;
      std::sort(want.begin(), want.end());
      std::sort(ranked.begin(), ranked.end());
      if (ranked != want) problem = "rank order is not a permutation of the targets";
    } else if (resp.epoch != r.mutation + 1) {
      problem = "mutation applied at epoch " + std::to_string(resp.epoch);
    }
    if (!problem.empty()) {
      result->Fail("request " + std::to_string(r.id) + ": " + problem);
      continue;
    }
    last_epoch[r.caller] = resp.epoch;
    parsed[i] = resp;
    good[i] = true;
  }
  // Seeded sample of estimate reads replayed on a cold one-thread engine on
  // the graph of the read's epoch: statistical fields must match bit for bit.
  {
    std::vector<std::size_t> reads;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      if (good[i] && schedule[i].kind == Kind::kEstimate) reads.push_back(i);
    }
    mhbc::Rng pick(options.seed ^ 0x5e7e5eedULL);
    const std::size_t replays = std::min<std::size_t>(reads.size(), options.small ? 3 : 8);
    mhbc::EngineOptions cold_options;
    cold_options.num_threads = 1;
    for (std::size_t k = 0; k < replays; ++k) {
      const std::size_t i = reads[pick.NextBounded(reads.size())];
      const Request& r = schedule[i];
      std::vector<WireReport> observed = parsed[i].reports;
      if (options.inject_wrong_report && k == 0) observed[0].value = FlipLowBit(observed[0].value);
      mhbc::BetweennessEngine cold(snapshots[parsed[i].epoch], cold_options);
      mhbc::EstimateRequest request;
      request.samples = kEstimateSamples;
      request.seed = r.seed;
      auto expected = cold.EstimateMany(r.vertices, request);
      bool same = expected.ok() && expected.value().size() == observed.size();
      for (std::size_t v = 0; same && v < observed.size(); ++v) {
        same = SameStatistics(observed[v], expected.value()[v]);
      }
      if (!same) {
        result->Fail("replay mismatch for request " + std::to_string(r.id) + " at epoch " +
                     std::to_string(parsed[i].epoch));
        good[i] = false;
      }
    }
    result->Report("replayed_reports", static_cast<double>(replays), "count");
  }
  result->attempted = attempted;

  // --- metrics --------------------------------------------------------------
  // A failed or refused request counts as missing the latency limit.
  constexpr double kMissed = std::numeric_limits<double>::infinity();
  double max_rate = 0.0;
  std::vector<double> mid_reads_ms, mid_writes_ms, mid_elapsed_ms, traced_ms, untraced_ms;
  double queue_depth = 0.0, busy = 0.0, probes = 0.0;
  std::vector<double> lease_wait_ms, drain_ms;
  for (std::size_t rung = 0; rung < 3; ++rung) {
    std::vector<double> reads_ms, lateness_ms;
    std::size_t done = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Request& r = schedule[i];
      if (r.rung != rung) continue;
      const Outcome& out = outcomes[i];
      if (r.kind == Kind::kStats) {
        if (out.lease_wait_ms >= 0.0) lease_wait_ms.push_back(out.lease_wait_ms);
        if (good[i] && rung == kMiddleRung) {
          const mhbc::serve::JsonValue* res = parsed[i].body.Find("result");
          const mhbc::serve::JsonValue* depth = res ? res->Find("queue_depth") : nullptr;
          const mhbc::serve::JsonValue* workers = res ? res->Find("busy_workers") : nullptr;
          if (depth != nullptr && workers != nullptr) {
            queue_depth += depth->number_value;
            busy += workers->number_value;
            probes += 1.0;
          }
        }
        continue;
      }
      lateness_ms.push_back(out.lateness_ms);
      if (good[i]) ++done;
      if (r.kind == Kind::kMutate) {
        if (out.direct_mutate) {
          drain_ms.push_back(out.latency_ms - out.lateness_ms);
        } else if (rung == kMiddleRung && good[i]) {
          mid_writes_ms.push_back(out.latency_ms);
        }
        continue;
      }
      reads_ms.push_back(good[i] ? out.latency_ms : kMissed);
      if (rung == kMiddleRung && good[i]) {
        mid_reads_ms.push_back(out.latency_ms);
        (out.traced ? traced_ms : untraced_ms).push_back(out.latency_ms);
        mid_elapsed_ms.push_back(ElapsedMs(parsed[i]));
      }
    }
    // The backlog grew when the generator ended the rung later behind its
    // schedule than the latency limit: mean lateness of the last tenth.
    double tail_lateness = 0.0;
    const std::size_t last = std::max<std::size_t>(1, lateness_ms.size() / 10);
    for (std::size_t k = lateness_ms.size() - std::min(last, lateness_ms.size());
         k < lateness_ms.size(); ++k) {
      tail_lateness += lateness_ms[k] / static_cast<double>(last);
    }
    const bool grew = tail_lateness > kP99LimitMs;
    const double tail = TailPercentile(reads_ms.size(), {99.0, 90.0});
    const double p99 = Quantile(reads_ms, (tail > 0.0 ? tail : 99.0) / 100.0);
    const bool meets = p99 <= kP99LimitMs && !grew;
    const double achieved = static_cast<double>(done) / rung_wall_s[rung];
    // Process CPU per request at this rate: workers, callers and prober.
    const double cpu_per_op_ms =
        rung_cpu_s[rung] * 1e3 / static_cast<double>(std::max<std::size_t>(1, lateness_ms.size()));
    if (rung == kMiddleRung) {
      result->EndToEnd("cpu_per_op_ms", cpu_per_op_ms, "ms");
      result->Report("cpu_per_op_ms", cpu_per_op_ms, "ms");
    }
    if (meets) max_rate = std::max(max_rate, achieved);
    const std::string prefix = "rung" + std::to_string(rung) + ".";
    result->Report(prefix + "offered_rps", rates[rung], "1/s");
    result->Report(prefix + "achieved_rps", achieved, "1/s");
    result->Report(prefix + "cpu_per_op_ms", cpu_per_op_ms, "ms");
    result->Report(prefix + "read_p50_ms", Median(reads_ms), "ms");
    result->Report(prefix + "read_tail_ms", p99, "ms");
    result->Report(prefix + "read_tail_percentile", tail, "percentile");
    result->Report(prefix + "reads", static_cast<double>(reads_ms.size()), "count");
    result->Report(prefix + "generator_lateness_p50_ms", Median(lateness_ms), "ms");
    result->Report(prefix + "generator_lateness_max_ms",
                   lateness_ms.empty() ? 0.0 : *std::max_element(lateness_ms.begin(), lateness_ms.end()),
                   "ms");
    result->Report(prefix + "generator_lateness_end_ms", tail_lateness, "ms");
    result->Report(prefix + "backlog_grew", grew ? 1.0 : 0.0, "bool");
    result->Report(prefix + "meets_limit", meets ? 1.0 : 0.0, "bool");
  }
  ReportLatency(result, "latency", mid_reads_ms);
  result->Report("write_p50_ms", Median(mid_writes_ms), "ms");
  result->Report("write_samples", static_cast<double>(mid_writes_ms.size()), "count");
  result->Report("max_rate_rps", max_rate, "1/s");
  result->Report("p99_limit_ms", kP99LimitMs, "ms");
  result->Report("serve.server_elapsed_ms", Median(mid_elapsed_ms), "ms");
  result->Report("serve.queue_depth_mean", probes > 0 ? queue_depth / probes : 0.0, "count");
  result->Report("serve.busy_workers_mean", probes > 0 ? busy / probes : 0.0, "count");
  result->Report("serve.rejected_overload", static_cast<double>(server_stats.rejected_overload),
                 "count");
  const double reads_served = static_cast<double>(std::count_if(
      schedule.begin(), schedule.end(),
      [](const Request& r) { return r.kind == Kind::kEstimate || r.kind == Kind::kRank; }));
  const double passes = static_cast<double>(passes_after - passes_before);
  const double hits = static_cast<double>(hits_after - hits_before);
  const double hit_ratio = hits + passes > 0.0 ? hits / (hits + passes) : 0.0;
  result->Report("exact.oracle.hit_ratio", hit_ratio, "fraction");
  result->Report("centrality.passes_per_query", passes / std::max(1.0, reads_served), "count");

  if (trace->enabled()) {
    result->Report("serve.lease_wait_ms", Median(lease_wait_ms), "ms");
    result->Report("serve.mutate_drain_ms", Median(drain_ms), "ms");
    result->Layer("exact.oracle.hit_ratio", hit_ratio, "fraction");
    result->Layer("centrality.passes_per_query", passes / std::max(1.0, reads_served), "count");
    ProbeConfig probe;
    probe.threads = 1;  // engine defaults: sequential passes
    probe.sources = options.small ? 4 : 16;
    probe.chain_iterations = 600;
    probe.rank_iterations = kRankIterations;
    probe.estimate_samples = kEstimateSamples;
    probe.warm_samples = 4ULL * graph->num_vertices();  // as the sessions
    const LayerCosts costs = ProbeLayers(*graph, probe, options.seed, trace, schedule.size() + 1);
    EmitLayerCosts(costs, result);
    // A traced read, from its due time: generator lateness, the part of
    // Server::Call outside the server's own clock (parse, admission,
    // hand-off), the engine call (unit cost from the probes), response
    // formatting, and the server's residual (queue and lease wait).
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Request& r = schedule[i];
      const Outcome& out = outcomes[i];
      if (r.rung != kMiddleRung || !out.traced || !good[i] ||
          (r.kind != Kind::kEstimate && r.kind != Kind::kRank)) {
        continue;
      }
      const double total_s = out.latency_ms / 1e3;
      const double late_s = out.lateness_ms / 1e3;
      const double elapsed_s = ElapsedMs(parsed[i]) / 1e3;
      const bool estimate = r.kind == Kind::kEstimate;
      const double compute_s = (estimate ? costs.estimate_many_ms : costs.rank_ms) / 1e3;
      const double format_s = costs.format_us / 1e6;
      trace->AddBreakdown({r.id, "serve.Server::Call", total_s,
                           {{"serve.generator_lateness", late_s},
                            {"serve.client", total_s - late_s - elapsed_s},
                            {estimate ? "centrality.estimate_many" : "core.joint.rank", compute_s},
                            {"serve.format", format_s},
                            {"serve.server", elapsed_s - compute_s - format_s}},
                           "serve.server"});
    }
    FinishTrace(options, *trace, traced_ms, untraced_ms, result);
  }
}

}  // namespace perfbench
