#include "graph/graph_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph_algos.h"
#include "graph/graph_builder.h"

namespace mhbc {

namespace {

struct RawEdge {
  std::uint64_t u;
  std::uint64_t v;
  double weight;
};

}  // namespace

StatusOr<CsrGraph> ParseEdgeList(std::istream& in,
                                 const EdgeListOptions& options) {
  if (options.stats != nullptr) *options.stats = EdgeListStats{};
  std::vector<RawEdge> raw_edges;
  std::unordered_map<std::uint64_t, VertexId> id_map;
  EdgeListStats stats;
  // Orientation bitmask per unordered pair {u,v} of *remapped* ids
  // (bit 0: the min→max arc seen, bit 1: max→min), so mirrored pairs are
  // counted exactly once however often each orientation repeats.
  std::unordered_map<std::uint64_t, unsigned char> orientations;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments ('#' to end of line) and skip blank lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::uint64_t u = 0, v = 0;
    if (!(fields >> u)) continue;  // blank or comment-only line
    if (!(fields >> v)) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected two vertex ids");
    }
    double w = 1.0;
    if (options.allow_weights) {
      std::string token;
      if (fields >> token && !ParseEdgeWeight(token, &w)) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": edge weight must be a finite positive number, got '" + token +
            "'");
      }
    } else {
      std::string extra;
      if (fields >> extra) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": unexpected third column '" + extra +
            "' (weights not enabled)");
      }
    }
    raw_edges.push_back(RawEdge{u, v, w});
    ++stats.edge_lines;
    // Register ids in first-seen order for stable remapping.
    for (std::uint64_t id : {u, v}) {
      if (id_map.find(id) == id_map.end()) {
        const auto next = static_cast<VertexId>(id_map.size());
        id_map.emplace(id, next);
      }
    }
    if (u == v) {
      ++stats.self_loop_lines;
    } else {
      const VertexId mu = id_map.at(u);
      const VertexId mv = id_map.at(v);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(std::min(mu, mv)) << 32) |
          std::max(mu, mv);
      const unsigned char bit = mu < mv ? 1 : 2;
      unsigned char& mask = orientations[key];
      if ((mask | bit) == 3 && mask != 3) ++stats.mirrored_pairs;
      mask |= bit;
    }
  }
  if (options.stats != nullptr) *options.stats = stats;
  if (id_map.empty()) {
    return Status::InvalidArgument("edge list contains no edges");
  }

  GraphBuilder builder(static_cast<VertexId>(id_map.size()));
  builder.set_directed(options.directed);
  builder.set_ignore_self_loops(true).set_merge_duplicates(true);
  for (const RawEdge& e : raw_edges) {
    builder.AddWeightedEdge(id_map.at(e.u), id_map.at(e.v), e.weight);
  }
  StatusOr<CsrGraph> built = builder.Build();
  if (!built.ok()) return built.status();
  CsrGraph graph = std::move(built).value();
  if (options.largest_component_only) {
    graph = ExtractLargestComponent(graph);
  }
  return graph;
}

StatusOr<CsrGraph> LoadSnapEdgeList(const std::string& path,
                                    const EdgeListOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  StatusOr<CsrGraph> result = ParseEdgeList(in, options);
  if (result.ok()) result.value().set_name(path);
  return result;
}

void WriteEdgeList(const CsrGraph& graph, std::ostream& out) {
  out << "# mhbc edge list: n=" << graph.num_vertices()
      << " m=" << graph.num_edges()
      << (graph.weighted() ? " weighted" : "")
      << (graph.directed() ? " directed" : "") << "\n";
  for (const CsrGraph::Edge& e : graph.CollectEdges()) {
    out << e.u << '\t' << e.v;
    if (graph.weighted()) out << '\t' << e.weight;
    out << '\n';
  }
}

Status WriteEdgeList(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  WriteEdgeList(graph, out);
  out.flush();
  if (!out) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return Status::Ok();
}

bool ParseEdgeWeight(const std::string& token, double* weight) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  // strtod maps an overflowing literal to HUGE_VAL, so the finiteness test
  // also rejects "1e999".
  if (token.empty() || end != token.c_str() + token.size() ||
      !std::isfinite(value) || !(value > 0.0)) {
    return false;
  }
  *weight = value;
  return true;
}

StatusOr<std::vector<VertexId>> ParseVertexIdListStrict(
    const std::string& csv) {
  std::vector<VertexId> ids;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string token = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t first = token.find_first_not_of(" \t");
    if (first != std::string::npos) {
      const std::size_t last = token.find_last_not_of(" \t");
      const std::string trimmed = token.substr(first, last - first + 1);
      if (trimmed.find_first_not_of("0123456789") != std::string::npos) {
        return Status::InvalidArgument("no vertex ids: '" + trimmed +
                                       "' is not a vertex id (expected "
                                       "comma-separated non-negative "
                                       "integers)");
      }
      // Overflow-safe: strtoull saturates at ULLONG_MAX, which the >=
      // kInvalidVertex check below rejects along with every 32-bit wrap.
      const unsigned long long value =
          std::strtoull(trimmed.c_str(), nullptr, 10);
      if (value >= static_cast<unsigned long long>(kInvalidVertex)) {
        return Status::InvalidArgument(
            "no vertex ids: '" + trimmed + "' exceeds the vertex-id range " +
            "(max " + std::to_string(kInvalidVertex - 1) + ")");
      }
      ids.push_back(static_cast<VertexId>(value));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (ids.empty()) {
    return Status::InvalidArgument("no vertex ids given");
  }
  return ids;
}

}  // namespace mhbc
