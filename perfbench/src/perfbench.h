#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"
#include "util/rng.h"

// Shared pieces of the repository benchmark: options, the result that is
// printed as one JSON line, spans for the traced run, statistics, and the
// per-layer probes. The benchmark calls only the library's public API.

namespace perfbench {

using Clock = std::chrono::steady_clock;
using mhbc::CsrGraph;
using mhbc::VertexId;

double SecondsBetween(Clock::time_point from, Clock::time_point to);
double SecondsSince(Clock::time_point from);
/// CPU seconds this process has used, over all its threads. Unlike wall
/// time it does not grow while the host runs other guests on our vCPUs
/// or while a thread waits to be woken.
double ProcessCpuSeconds();
/// ProcessCpuSeconds() minus *mark; then moves *mark to now.
double CpuLap(double* mark);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short configuration with small inputs, for the benchmark's own tests.
  bool small = false;
  /// Flips one value bit of one checked report before its correctness
  /// gate, to prove that the gate fires.
  bool inject_wrong_report = false;
  /// Where the traced run writes its spans.
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints. `end_to_end` and `per_layer` hold the metrics
/// BENCHMARK.json names (every workload emits all of them); `report`
/// holds every metric the workload defines, including the ones that exist
/// only on this workload (tails, write latency, ladder results).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> report;
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  void Report(const std::string& name, double value, const std::string& unit);
  void Meta(const std::string& key, const std::string& value);
  void Fail(const std::string& why);
};

/// Spans kept in memory around calls into the library's public API and
/// written out when the run ends. Disabled traces record nothing.
class Trace {
 public:
  explicit Trace(bool enabled);
  /// A trace that shares `origin` with another, so that traces kept by
  /// separate threads can be appended into one.
  Trace(bool enabled, Clock::time_point origin);

  bool enabled() const { return enabled_; }
  Clock::time_point origin() const { return origin_; }
  /// Appends another trace's spans (same origin), keeping their parents.
  void Append(const Trace& other);
  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t Begin(const std::string& name, std::uint64_t op,
                     std::int64_t parent = -1);
  void End(std::int64_t span);
  /// Self seconds summed per span name: a span's duration minus the part
  /// of it that its child spans cover.
  std::map<std::string, double> SelfSecondsByName() const;

  /// One operation's time split over layers. The inner layers were not
  /// timed inside the operation (the library is not instrumented): each
  /// share is a unit cost measured by a probe span times a count the
  /// operation reported. `residual_layer`, the outer layer, gets what is
  /// left by subtraction, so the parts add up to `total_s` exactly.
  struct Breakdown {
    std::uint64_t op = 0;
    std::string name;
    double total_s = 0.0;
    std::vector<std::pair<std::string, double>> layers;
    std::string residual_layer;
  };
  void AddBreakdown(Breakdown breakdown);
  const std::vector<Breakdown>& breakdowns() const { return breakdowns_; }

  /// Writes spans, per-name self times and breakdowns as JSON.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Breakdown> breakdowns_;
};

class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const std::string& name, std::uint64_t op,
             std::int64_t parent = -1)
      : trace_(trace), span_(trace->Begin(name, op, parent)) {}
  ~ScopedSpan() { trace_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return span_; }

 private:
  Trace* trace_;
  std::int64_t span_;
};

// ------------------------------------------------------------- statistics

/// Linear-interpolated quantile q in [0, 1] (the median of an even count
/// is the mean of the two middle values). Empty input gives 0.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Highest of `candidates` (percentiles, descending) that leaves at least
/// ten samples beyond it among n; 0 when none does.
double TailPercentile(std::size_t n, const std::vector<double>& candidates);
/// Reports a median and the tail percentile of `values` under `name`
/// ("<name>_p50_ms", "<name>_p<q>_ms", "<name>_samples").
void ReportLatency(Result* result, const std::string& name,
                   const std::vector<double>& values_ms);

/// `value` with its lowest mantissa bit flipped: the injected wrong report.
double FlipLowBit(double value);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMiB();

// ------------------------------------------------------------ set-up timing

/// One set-up of a workload, split into its parts, in process CPU seconds
/// (steady on a shared host; see ProcessCpuSeconds), plus its wall time.
struct SetupTimes {
  double generate_s = 0.0;
  double construct_s = 0.0;
  double warmup_s = 0.0;
  double wall_s = 0.0;
  double total() const { return generate_s + construct_s + warmup_s; }
};
/// Emits setup_s (median CPU total over the repetitions) and its split.
void EmitSetup(const std::vector<SetupTimes>& reps, Result* result);

// ----------------------------------------------------------- targets, mix

struct Targets {
  VertexId hub = 0;
  VertexId median = 0;
  VertexId peripheral = 0;
};
/// Highest-, median- and lowest-degree vertices (stable by id).
Targets PickTargets(const CsrGraph& graph);
/// `count` distinct vertices below n drawn from `rng` (count <= n).
std::vector<VertexId> DistinctVertices(VertexId n, std::size_t count, mhbc::Rng* rng);

// ----------------------------------------------------------- layer probes

/// Unit costs of the library's layers on one graph, each measured by
/// timing the layer's own public call on that graph.
struct LayerCosts {
  double bfs_pass_us = 0.0;     ///< BfsSpd::Run at the workload's threads
  double bfs_pass_1t_us = 0.0;  ///< BfsSpd::Run at 1 thread
  double bfs_pass_4t_us = 0.0;  ///< BfsSpd::Run at 4 threads
  double edges_per_pass = 0.0;
  double bottom_up_share = 0.0;
  double sweep_us = 0.0;        ///< Accumulate after a workload-threads pass
  double sweep_1t_us = 0.0;     ///< Accumulate after a 1-thread pass
  double delta_pass_us = 0.0;   ///< DeltaSpd::Run at the workload's threads
  double delta_pass_1t_us = 0.0;
  double delta_sweep_1t_us = 0.0;
  double delta_waves_per_pass = 0.0;
  double delta_bucket_scans_per_edge = 0.0;
  double oracle_miss_us = 0.0;
  double oracle_hit_us = 0.0;
  double chain_step_self_us = 0.0;
  double rank_ms = 0.0;
  double estimate_many_ms = 0.0;
  double apply_delta_ms = 0.0;
  double parse_us = 0.0;
  double format_us = 0.0;
};

struct ProbeConfig {
  unsigned threads = 4;        ///< SPD threads the workload's passes use
  std::size_t sources = 8;     ///< probe sources per kernel
  std::uint64_t chain_iterations = 16;
  std::uint64_t rank_iterations = 24;
  std::uint64_t estimate_samples = 8;
  /// Uniform-source samples that warm the probe engine's memo before the
  /// timed engine calls (0: the engine calls start cold).
  std::uint64_t warm_samples = 0;
};

/// Times each layer's public call on `graph` (and on a weighted twin for
/// the delta-stepping kernel when `graph` is unweighted). Every call gets
/// a span under one probe span with operation id `op`.
LayerCosts ProbeLayers(const CsrGraph& graph, const ProbeConfig& config,
                       std::uint64_t seed, Trace* trace, std::uint64_t op);

/// Emits the per-layer metrics every workload shares. Workload counters
/// (passes per query, hit ratio, set-up generation time, tracing
/// overhead, residual share) are emitted by the workload itself.
void EmitLayerCosts(const LayerCosts& costs, Result* result);

/// Ends a traced run: emits the tracing overhead (median traced minus
/// median untraced operation latency), the residual share, the mean self
/// time per layer and operation, and how far the breakdowns miss their
/// totals; then writes the spans under options.out_dir.
void FinishTrace(const Options& options, const Trace& trace,
                 const std::vector<double>& traced_ms,
                 const std::vector<double>& untraced_ms, Result* result);

// --------------------------------------------------------------- workloads

void RunEstimateSocialCold(const Options& options, Result* result,
                           Trace* trace);
void RunExactRoad(const Options& options, bool weighted, Result* result,
                  Trace* trace);
void RunServeMixed(const Options& options, Result* result, Trace* trace);

/// Prints the exact-road digest table (sequential ExactBetweenness) in
/// the form road_digests.h holds it.
int PrintRoadDigests();

}  // namespace perfbench
