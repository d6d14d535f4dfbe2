#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exact/brandes.h"
#include "graph/csr_graph.h"
#include "serve/request_fields.h"
#include "util/table.h"

/// \file
/// Shared helpers for the experiment harnesses: bench_paper (the paper's
/// accuracy experiments, whose tables are committed as BENCH_paper.json)
/// and the timing benches bench_e*. Each prints markdown tables from fixed
/// seeds and records them in a BENCH_<id>.json, so every committed row can
/// be reproduced by re-running the binary.

// Build metadata, passed in as compile definitions by the bench targets
// (CMakeLists.txt); the fallbacks keep the header compiling on its own.
#ifndef MHBC_BENCH_BUILD_TYPE
#define MHBC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MHBC_BENCH_CXX_FLAGS
#define MHBC_BENCH_CXX_FLAGS "unknown"
#endif
#ifndef MHBC_BENCH_GIT_SHA
#define MHBC_BENCH_GIT_SHA "unknown"
#endif
#if defined(__clang__)
#define MHBC_BENCH_COMPILER __VERSION__  // "Clang x.y.z ..." already
#elif defined(__GNUC__)
#define MHBC_BENCH_COMPILER "GCC " __VERSION__
#else
#define MHBC_BENCH_COMPILER "unknown"
#endif

namespace mhbc::bench {

/// Target-vertex roles the experiments sweep over.
struct TargetSet {
  VertexId hub;         // maximum degree
  VertexId median;      // median degree
  VertexId peripheral;  // minimum degree (ties: lowest id)
};

/// Picks hub/median/peripheral targets by degree.
inline TargetSet PickTargets(const CsrGraph& graph) {
  std::vector<VertexId> order(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&graph](VertexId a, VertexId b) {
    return graph.degree(a) < graph.degree(b);
  });
  TargetSet t;
  t.peripheral = order.front();
  t.median = order[order.size() / 2];
  t.hub = order.back();
  return t;
}

/// Standard experiment banner.
inline void Banner(const char* id, const char* what) {
  std::printf("== %s: %s ==\n", id, what);
}

/// Strict parse of one bench argument or flag value named `name`: a plain
/// decimal count in [min, max], by the same digits-only rule as the tools'
/// count flags ("12x", "-1" and "" fail). False, with the reason on
/// stderr, on a bad value; the caller prints its usage and exits 2.
inline bool ParseArg(const char* name, const char* text, std::uint64_t min,
                     std::uint64_t max, std::uint64_t* out) {
  const StatusOr<std::uint64_t> parsed =
      serve::ParseCountField(name, text, max);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    return false;
  }
  if (parsed.value() < min) {
    std::fprintf(stderr, "%s=%s is below the minimum %llu\n", name, text,
                 static_cast<unsigned long long>(min));
    return false;
  }
  *out = parsed.value();
  return true;
}

/// Real-valued twin of ParseArg (serve::ParseRealField): the whole of
/// `text` must parse as a finite double ("abc", "1.5x", "inf" fail).
inline bool ParseArg(const char* name, const char* text, double* out) {
  const StatusOr<double> parsed = serve::ParseRealField(name, text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    return false;
  }
  *out = parsed.value();
  return true;
}

/// Machine-readable twin of the markdown output: collects the tables (and
/// free-form metadata) a harness prints and writes them as
/// `BENCH_<id>.json` next to the markdown, i.e. into the working
/// directory, so the perf trajectory is diffable/trackable across PRs
/// without scraping stdout. Every report opens its metadata with the host
/// and build that produced it: nproc, compiler, build type, flags, and the
/// git sha read when the build was configured.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_id) : bench_id_(std::move(bench_id)) {
    AddMeta("nproc", std::to_string(std::thread::hardware_concurrency()));
    AddMeta("compiler", MHBC_BENCH_COMPILER);
    AddMeta("build_type", MHBC_BENCH_BUILD_TYPE);
    AddMeta("cxx_flags", MHBC_BENCH_CXX_FLAGS);
    AddMeta("git_sha", MHBC_BENCH_GIT_SHA);
  }

  /// Records a context key/value pair (graph size, seed, host threads...).
  void AddMeta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, value);
  }

  void AddTable(const std::string& title, const Table& table) {
    tables_.emplace_back(title, table.ToJson());
  }

  /// Writes BENCH_<id>.json into the working directory and returns the
  /// file name (empty on I/O failure, with a note on stderr — a bench run
  /// must never die on a read-only directory).
  std::string Write() const {
    const std::string path = "BENCH_" + bench_id_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "note: could not write %s\n", path.c_str());
      return "";
    }
    out << "{\"bench\": \"" << EscapeJson(bench_id_) << "\", \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      if (i > 0) out << ", ";
      out << "\"" << EscapeJson(meta_[i].first) << "\": \""
          << EscapeJson(meta_[i].second) << "\"";
    }
    out << "}, \"tables\": [";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      out << (i > 0 ? ",\n" : "\n");  // a table per line: diffs name it
      out << "{\"title\": \"" << EscapeJson(tables_[i].first)
          << "\", \"table\": " << tables_[i].second << "}";
    }
    out << "]}\n";
    return path;
  }

 private:
  std::string bench_id_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, std::string>> tables_;  // title, json
};

/// Prints the table to stdout as a titled markdown table AND records it in
/// the JSON report.
inline void EmitTable(JsonReport* report, const std::string& title,
                      const Table& table) {
  std::printf("\n### %s\n\n%s\n", title.c_str(), table.ToMarkdown().c_str());
  if (report != nullptr) report->AddTable(title, table);
}

}  // namespace mhbc::bench
