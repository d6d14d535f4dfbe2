// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>] [--small]
//             [--inject-wrong-report]
//   perfbench --print-road-digests
//
// Prints two JSON lines: a report (every metric the workload defines, the
// run metadata and the first failures), then the result line
// {"correct", "attempted", "failed", "metrics"}, where the metrics are the
// end-to-end ones of BENCHMARK.json, or with --trace 1 the per-layer ones.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

constexpr const char* kWorkloads[] = {"estimate-social-cold", "exact-road",
                                     "exact-road-weighted", "serve-mixed"};

std::string JsonString(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (value != value || value == 1.0 / 0.0 || value == -1.0 / 0.0) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--git-sha <sha>] [--small] "
               "[--inject-wrong-report]\n       perfbench --print-road-digests\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--print-road-digests") {
      return perfbench::PrintRoadDigests();
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--inject-wrong-report") {
      options.inject_wrong_report = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseNumber(argv[++i], &number) || number < 0) return Usage("bad --seed");
      options.seed = std::strtoull(argv[i], nullptr, 10);
    } else if (arg == "--seconds") {
      if (!ParseNumber(argv[++i], &number) || number <= 0) return Usage("bad --seconds");
      options.seconds = number;
    } else if (arg == "--trace") {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = argv[++i];
    } else if (arg == "--git-sha") {
      options.git_sha = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || (have_workload && options.workload == name);
  if (!known) return Usage("unknown or missing --workload");

  Result result;
  perfbench::Trace trace(options.trace);
  if (options.workload == "estimate-social-cold") {
    perfbench::RunEstimateSocialCold(options, &result, &trace);
  } else if (options.workload == "exact-road") {
    perfbench::RunExactRoad(options, false, &result, &trace);
  } else if (options.workload == "exact-road-weighted") {
    perfbench::RunExactRoad(options, true, &result, &trace);
  } else {
    perfbench::RunServeMixed(options, &result, &trace);
  }

  // Workloads record peak_rss_mb when their timed region ends, before the
  // correctness gates and probes allocate; the report also has the peak of
  // the whole process.
  if (result.end_to_end.count("peak_rss_mb") == 0) {
    result.EndToEnd("peak_rss_mb", perfbench::PeakRssMiB(), "MiB");
  }
  result.Report("peak_rss_mb", result.end_to_end["peak_rss_mb"].value, "MiB");
  result.Report("peak_rss_process_mb", perfbench::PeakRssMiB(), "MiB");
  if (result.attempted == 0) result.attempted = 1;  // a run that could not start
  result.Report("failed_ratio",
                static_cast<double>(result.failed) / static_cast<double>(result.attempted),
                "fraction");

  std::string meta = "{";
  auto add_meta = [&meta](const std::string& key, const std::string& value) {
    if (meta.size() > 1) meta += ", ";
    meta += JsonString(key) + ": " + JsonString(value);
  };
  add_meta("workload", options.workload);
  add_meta("seed", std::to_string(options.seed));
  add_meta("seconds", JsonNumber(options.seconds));
  add_meta("trace", options.trace ? "1" : "0");
  add_meta("small", options.small ? "1" : "0");
  add_meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  add_meta("compiler", PERFBENCH_COMPILER);
  add_meta("build_type", PERFBENCH_BUILD_TYPE);
  add_meta("cxx_flags", PERFBENCH_CXX_FLAGS);
  add_meta("git_sha", options.git_sha);
  for (const auto& [key, value] : result.meta) add_meta(key, value);
  meta += "}";
  std::string failures = "[";
  for (const std::string& f : result.failures) {
    failures += (failures.size() > 1 ? ", " : "") + JsonString(f);
  }
  failures += "]";

  std::printf("{\"report\": %s, \"meta\": %s, \"failures\": %s}\n",
              MetricsJson(result.report).c_str(), meta.c_str(), failures.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(options.trace ? result.per_layer : result.end_to_end).c_str());
  return 0;
}
