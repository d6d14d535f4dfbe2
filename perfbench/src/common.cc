#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return SecondsBetween(from, Clock::now());
}

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double CpuLap(double* mark) {
  const double now = ProcessCpuSeconds();
  const double lap = now - *mark;
  *mark = now;
  return lap;
}

// ------------------------------------------------------------------ Result

void Result::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end[name] = Metric{value, unit};
}

void Result::Layer(const std::string& name, double value,
                   const std::string& unit) {
  per_layer[name] = Metric{value, unit};
}

void Result::Report(const std::string& name, double value,
                    const std::string& unit) {
  report[name] = Metric{value, unit};
}

void Result::Meta(const std::string& key, const std::string& value) {
  meta.emplace_back(key, value);
}

void Result::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

// ------------------------------------------------------------------- Trace

Trace::Trace(bool enabled) : Trace(enabled, Clock::now()) {}

Trace::Trace(bool enabled, Clock::time_point origin)
    : enabled_(enabled), origin_(origin) {}

void Trace::Append(const Trace& other) {
  const auto shift = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += shift;
    spans_.push_back(std::move(s));
  }
}

std::int64_t Trace::Begin(const std::string& name, std::uint64_t op,
                          std::int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, SecondsSince(origin_), -1.0, parent, op});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Trace::End(std::int64_t span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = SecondsSince(origin_);
}

std::map<std::string, double> Trace::SelfSecondsByName() const {
  // Children of one parent may run on other threads and overlap, so the
  // covered part is the union of their intervals, clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end >= 0.0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0.0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, cursor);
      const double to = std::min(end, s.end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[s.name] += (s.end - s.start) - covered;
  }
  return self;
}

void Trace::AddBreakdown(Breakdown breakdown) {
  if (enabled_) breakdowns_.push_back(std::move(breakdown));
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(9);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"start_s\": " << s.start << ", \"end_s\": " << s.end << "}";
  }
  out << "],\n\"self_s_by_name\": {";
  bool first = true;
  for (const auto& [name, seconds] : SelfSecondsByName()) {
    out << (first ? "\n" : ",\n") << "\"" << name << "\": " << seconds;
    first = false;
  }
  out << "},\n\"breakdowns\": [";
  for (std::size_t i = 0; i < breakdowns_.size(); ++i) {
    const Breakdown& b = breakdowns_[i];
    out << (i ? ",\n" : "\n") << "{\"op\": " << b.op << ", \"name\": \""
        << b.name << "\", \"total_s\": " << b.total_s
        << ", \"residual_layer\": \"" << b.residual_layer
        << "\", \"self_s\": {";
    for (std::size_t j = 0; j < b.layers.size(); ++j) {
      out << (j ? ", " : "") << "\"" << b.layers[j].first
          << "\": " << b.layers[j].second;
    }
    out << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

/// Share of traced operation time the breakdowns give their residual
/// (outer, by-subtraction) layer.
double ResidualShare(const Trace& trace) {
  double residual = 0.0;
  double total = 0.0;
  for (const Trace::Breakdown& b : trace.breakdowns()) {
    total += b.total_s;
    for (const auto& [layer, seconds] : b.layers) {
      if (layer == b.residual_layer) residual += seconds;
    }
  }
  return total > 0.0 ? residual / total : 0.0;
}

}  // namespace

void FinishTrace(const Options& options, const Trace& trace,
                 const std::vector<double>& traced_ms,
                 const std::vector<double>& untraced_ms, Result* result) {
  result->Layer("trace.overhead_ms", Median(traced_ms) - Median(untraced_ms),
                "ms");
  result->Layer("trace.residual_share", ResidualShare(trace), "fraction");
  std::map<std::string, double> self_s;
  double worst_gap = 0.0;
  for (const Trace::Breakdown& b : trace.breakdowns()) {
    double sum = 0.0;
    for (const auto& [layer, seconds] : b.layers) {
      self_s[layer] += seconds;
      sum += seconds;
    }
    worst_gap = std::max(worst_gap, std::abs(sum - b.total_s));
  }
  const double ops = static_cast<double>(std::max<std::size_t>(1, trace.breakdowns().size()));
  for (const auto& [layer, seconds] : self_s) {
    result->Report("trace.self_ms_per_op." + layer, seconds / ops * 1e3, "ms");
  }
  result->Report("trace.traced_ops", static_cast<double>(trace.breakdowns().size()),
                 "count");
  result->Report("trace.reconcile_gap_ms", worst_gap * 1e3, "ms");
  const std::string path = options.out_dir + "/trace-" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  if (trace.Write(path)) {
    result->Meta("trace_file", path);
  } else {
    result->Meta("trace_file", "unwritable: " + path);
  }
}

// -------------------------------------------------------------- statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double TailPercentile(std::size_t n, const std::vector<double>& candidates) {
  for (const double p : candidates) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond >= 10.0) return p;
  }
  return 0.0;
}

void ReportLatency(Result* result, const std::string& name,
                   const std::vector<double>& values_ms) {
  result->Report(name + "_p50_ms", Median(values_ms), "ms");
  result->Report(name + "_samples", static_cast<double>(values_ms.size()),
                 "count");
  const double tail = TailPercentile(values_ms.size(), {99.0, 90.0, 75.0});
  if (tail > 0.0) {
    char label[32];
    std::snprintf(label, sizeof label, "_p%.0f_ms", tail);
    result->Report(name + label, Quantile(values_ms, tail / 100.0), "ms");
  }
}

double FlipLowBit(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  bits ^= 1;
  std::memcpy(&value, &bits, sizeof bits);
  return value;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void EmitSetup(const std::vector<SetupTimes>& reps, Result* result) {
  std::vector<double> total, generate, construct, warmup, wall;
  for (const SetupTimes& r : reps) {
    total.push_back(r.total());
    wall.push_back(r.wall_s);
    generate.push_back(r.generate_s);
    construct.push_back(r.construct_s);
    warmup.push_back(r.warmup_s);
  }
  result->EndToEnd("setup_s", Median(total), "s");
  result->Report("setup_s", Median(total), "s");
  result->Report("setup_generate_s", Median(generate), "s");
  result->Report("setup_construct_s", Median(construct), "s");
  result->Report("setup_warmup_s", Median(warmup), "s");
  result->Report("setup_wall_s", Median(wall), "s");
  result->Report("setup_repetitions", static_cast<double>(reps.size()),
                 "count");
  result->Layer("graph.generate_s", Median(generate), "s");
}

Targets PickTargets(const CsrGraph& graph) {
  std::vector<VertexId> order(graph.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&graph](VertexId a, VertexId b) {
    return graph.degree(a) < graph.degree(b);
  });
  Targets t;
  t.peripheral = order.front();
  t.median = order[order.size() / 2];
  t.hub = order.back();
  return t;
}

std::vector<VertexId> DistinctVertices(VertexId n, std::size_t count, mhbc::Rng* rng) {
  std::vector<VertexId> out;
  while (out.size() < count) {
    const VertexId v = rng->NextVertex(n);
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

}  // namespace perfbench
