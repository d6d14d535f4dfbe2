#include "graph/dynamic_graph.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <span>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "graph/graph_io.h"
#include "util/rng.h"

namespace mhbc {

// -------------------------------------------------------------- GraphDelta

GraphDelta& GraphDelta::AddEdge(VertexId u, VertexId v, double weight) {
  edits_.push_back(GraphEdit{GraphEdit::Kind::kAddEdge, u, v, weight});
  return *this;
}

GraphDelta& GraphDelta::RemoveEdge(VertexId u, VertexId v) {
  edits_.push_back(GraphEdit{GraphEdit::Kind::kRemoveEdge, u, v, 1.0});
  return *this;
}

GraphDelta& GraphDelta::AddVertices(std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    edits_.push_back(GraphEdit{GraphEdit::Kind::kAddVertex, kInvalidVertex,
                               kInvalidVertex, 1.0});
  }
  return *this;
}

// -------------------------------------------------------- edit-script text

namespace {

/// Strips a '#' comment and surrounding whitespace.
std::string CleanLine(const std::string& raw) {
  std::string line = raw;
  const std::string::size_type hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const std::string::size_type first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const std::string::size_type last = line.find_last_not_of(" \t\r\n");
  return line.substr(first, last - first + 1);
}

/// Parses one non-negative vertex id token; false on malformed input.
bool ParseVertex(std::istringstream& tokens, VertexId* out) {
  long long value = 0;
  if (!(tokens >> value)) return false;
  if (value < 0 || value >= static_cast<long long>(kInvalidVertex)) {
    return false;
  }
  *out = static_cast<VertexId>(value);
  return true;
}

}  // namespace

StatusOr<GraphDelta> ParseEditScriptText(const std::string& text,
                                         const std::string& where) {
  GraphDelta delta;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  long long added_vertices = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = CleanLine(raw);
    if (line.empty()) continue;
    const auto fail = [&](const std::string& message) {
      return Status::InvalidArgument(where + ":" + std::to_string(line_no) +
                                     ": " + message);
    };
    std::istringstream tokens(line);
    std::string op;
    tokens >> op;
    std::string trailing;
    if (op == "add") {
      VertexId u, v;
      if (!ParseVertex(tokens, &u) || !ParseVertex(tokens, &v)) {
        return fail("expected: add <u> <v> [w]");
      }
      double weight = 1.0;  // the weight is optional
      std::string token;
      if (tokens >> token && !ParseEdgeWeight(token, &weight)) {
        return fail("edge weight must be a finite positive number, got '" +
                    token + "'");
      }
      if (tokens >> trailing) return fail("trailing input '" + trailing + "'");
      delta.AddEdge(u, v, weight);
    } else if (op == "remove") {
      VertexId u, v;
      if (!ParseVertex(tokens, &u) || !ParseVertex(tokens, &v)) {
        return fail("expected: remove <u> <v>");
      }
      if (tokens >> trailing) return fail("trailing input '" + trailing + "'");
      delta.RemoveEdge(u, v);
    } else if (op == "addvertex") {
      long long count = 1;
      if (!(tokens >> count)) {
        tokens.clear();  // the count is optional
        count = 1;
      }
      if (count < 1 || count > static_cast<long long>(kInvalidVertex)) {
        return fail("addvertex count out of range");
      }
      added_vertices += count;
      if (added_vertices > kMaxScriptAddedVertices) {
        return fail("script adds more than " +
                    std::to_string(kMaxScriptAddedVertices) + " vertices");
      }
      if (tokens >> trailing) return fail("trailing input '" + trailing + "'");
      delta.AddVertices(static_cast<std::uint32_t>(count));
    } else {
      return fail("unknown op '" + op +
                  "' (expected add / remove / addvertex)");
    }
  }
  return delta;
}

StatusOr<GraphDelta> ParseEditScript(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open edit script '" + path +
                           "' for reading");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseEditScriptText(text.str(), path);
}

Status WriteEditScript(const GraphDelta& delta, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open edit script '" + path +
                           "' for writing");
  }
  // Full double precision: a parsed script must reproduce the delta
  // exactly, weights included.
  out.precision(17);
  for (const GraphEdit& edit : delta.edits()) {
    switch (edit.kind) {
      case GraphEdit::Kind::kAddEdge:
        out << "add " << edit.u << " " << edit.v;
        if (edit.weight != 1.0) out << " " << edit.weight;
        out << "\n";
        break;
      case GraphEdit::Kind::kRemoveEdge:
        out << "remove " << edit.u << " " << edit.v << "\n";
        break;
      case GraphEdit::Kind::kAddVertex:
        out << "addvertex\n";
        break;
    }
  }
  out.flush();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::Ok();
}

// ------------------------------------------------------------ DynamicGraph

DynamicGraph::DynamicGraph(CsrGraph graph) : graph_(std::move(graph)) {}

namespace {

/// The state of an edge the batch leaves absent (weights are positive).
constexpr double kRemoved = 0.0;

/// One out-slot of the post-edit CSR that differs from the pre-edit graph:
/// from→to ends with `weight`, or is deleted when `weight` is kRemoved.
struct HalfEdge {
  VertexId from;
  VertexId to;
  double weight;
  bool in_base;  ///< the pre-edit graph holds from→to
};

std::string EdgeIds(VertexId u, VertexId v) {
  // Built by append: `const char* + std::string&&` trips a GCC 12
  // -Wrestrict false positive in the inlined libstdc++ concatenation.
  std::string out = "{";
  out += std::to_string(u);
  out += ',';
  out += std::to_string(v);
  out += '}';
  return out;
}

}  // namespace

Status DynamicGraph::Apply(const GraphDelta& delta,
                           std::vector<GraphEdit>* resolved) {
  if (delta.empty()) {
    if (resolved != nullptr) resolved->clear();
    return Status::Ok();
  }
  const bool directed = graph_.directed();
  const bool weighted = graph_.weighted();
  const VertexId base_n = graph_.num_vertices();
  // Edge key: the arc u→v when directed, the pair u<v when undirected.
  const auto key = [directed](VertexId u, VertexId v) {
    if (!directed && u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  const auto in_base = [&](VertexId u, VertexId v) {
    return u < base_n && v < base_n && graph_.HasEdge(u, v);
  };

  // Validation: each op checks against the pre-edit graph overlaid with
  // `touched` — the weight every edge the batch has touched so far ends
  // with, or kRemoved. Only O(batch) state is built, so an invalid batch
  // costs nothing proportional to the graph.
  std::unordered_map<std::uint64_t, double> touched;
  const auto current_weight = [&](VertexId u, VertexId v) {
    const auto it = touched.find(key(u, v));
    if (it != touched.end()) return it->second;
    return in_base(u, v) ? graph_.EdgeWeight(u, v) : kRemoved;
  };
  VertexId n = base_n;
  std::vector<GraphEdit> applied;
  applied.reserve(delta.size());
  for (const GraphEdit& edit : delta.edits()) {
    switch (edit.kind) {
      case GraphEdit::Kind::kAddVertex: {
        if (n == kInvalidVertex) {
          return Status::InvalidArgument("vertex id space exhausted");
        }
        ++n;
        applied.push_back(edit);
        break;
      }
      case GraphEdit::Kind::kAddEdge: {
        const std::string what = "add " + EdgeIds(edit.u, edit.v);
        if (edit.u >= n || edit.v >= n) {
          return Status::InvalidArgument(what + ": vertex out of range (n=" +
                                         std::to_string(n) + ")");
        }
        if (edit.u == edit.v) {
          return Status::InvalidArgument(
              what + ": self-loops are not allowed (paper graph model)");
        }
        if (!(edit.weight > 0.0)) {
          return Status::InvalidArgument(what +
                                         ": edge weight must be positive");
        }
        if (!std::isfinite(edit.weight)) {
          return Status::InvalidArgument(what +
                                         ": edge weight must be finite");
        }
        if (!weighted && edit.weight != 1.0) {
          return Status::InvalidArgument(
              what + ": cannot add a weighted edge to an unweighted graph");
        }
        if (current_weight(edit.u, edit.v) != kRemoved) {
          return Status::InvalidArgument(what + ": edge already exists");
        }
        touched[key(edit.u, edit.v)] = edit.weight;
        applied.push_back(edit);
        break;
      }
      case GraphEdit::Kind::kRemoveEdge: {
        const std::string what = "remove " + EdgeIds(edit.u, edit.v);
        if (edit.u >= n || edit.v >= n) {
          return Status::InvalidArgument(what + ": vertex out of range (n=" +
                                         std::to_string(n) + ")");
        }
        if (edit.u == edit.v) {
          return Status::InvalidArgument(what + ": self-loops never exist");
        }
        GraphEdit done = edit;
        // The weight the edge had before it disappears: the invalidation
        // test upstream needs it graph-free.
        done.weight = current_weight(edit.u, edit.v);
        if (done.weight == kRemoved) {
          return Status::InvalidArgument(what + ": no such edge");
        }
        touched[key(edit.u, edit.v)] = kRemoved;
        applied.push_back(done);
        break;
      }
    }
  }

  // Build: every touched edge whose final state differs from the pre-edit
  // graph becomes one changed half-edge per stored direction, sorted so
  // each vertex's changes merge into its ascending base slice in order.
  std::vector<HalfEdge> changes;
  changes.reserve(2 * touched.size());
  for (const auto& [edge, weight] : touched) {
    const auto u = static_cast<VertexId>(edge >> 32);
    const auto v = static_cast<VertexId>(edge & 0xffffffffu);
    const bool was = in_base(u, v);
    // Added then removed, or removed then re-added at the same weight.
    if (was ? weight == graph_.EdgeWeight(u, v) : weight == kRemoved) {
      continue;
    }
    changes.push_back(HalfEdge{u, v, weight, was});
    if (!directed) changes.push_back(HalfEdge{v, u, weight, was});
  }
  std::sort(changes.begin(), changes.end(),
            [](const HalfEdge& a, const HalfEdge& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  std::size_t adjacency_len = graph_.raw_adjacency().size();
  for (const HalfEdge& change : changes) {
    if (!change.in_base) ++adjacency_len;            // inserted
    if (change.weight == kRemoved) --adjacency_len;  // deleted
  }

  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<VertexId> adjacency;
  adjacency.reserve(adjacency_len);
  std::vector<double> weights;
  if (weighted) weights.reserve(adjacency_len);
  auto change = changes.begin();
  for (VertexId v = 0; v < n; ++v) {
    offsets[v] = adjacency.size();
    const std::span<const VertexId> ids =
        v < base_n ? graph_.neighbors(v) : std::span<const VertexId>();
    const std::span<const double> ws =
        v < base_n ? graph_.weights(v) : std::span<const double>();
    std::size_t copied = 0;  // base slots of v already merged
    const auto copy_base_until = [&](std::size_t end) {
      adjacency.insert(adjacency.end(), ids.begin() + copied,
                       ids.begin() + end);
      if (weighted) {
        weights.insert(weights.end(), ws.begin() + copied, ws.begin() + end);
      }
      copied = end;
    };
    for (; change != changes.end() && change->from == v; ++change) {
      const auto pos = static_cast<std::size_t>(
          std::lower_bound(ids.begin() + copied, ids.end(), change->to) -
          ids.begin());
      copy_base_until(pos);
      if (change->in_base) ++copied;  // replaced or deleted below
      if (change->weight != kRemoved) {
        adjacency.push_back(change->to);
        if (weighted) weights.push_back(change->weight);
      }
    }
    copy_base_until(ids.size());
  }
  offsets[n] = adjacency.size();
  MHBC_DCHECK(adjacency.size() == adjacency_len);

  std::string name = graph_.name();
  graph_ = CsrGraph::AdoptVerbatim(std::move(offsets), std::move(adjacency),
                                   std::move(weights), std::move(name),
                                   directed);
  if (resolved != nullptr) *resolved = std::move(applied);
  return Status::Ok();
}

// -------------------------------------------------------- random scripts

GraphDelta MakeRandomEditScript(const CsrGraph& graph, std::size_t num_edits,
                                std::uint64_t seed) {
  Rng rng(seed);
  GraphDelta delta;
  // Live model of the composed graph as the script grows, so every op is
  // valid in sequence.
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::unordered_set<std::uint64_t> edge_set;
  // Directed scripts key on the *ordered* pair: the reciprocal arc is a
  // distinct edge, so inserting v→u while u→v exists is valid.
  const bool directed = graph.directed();
  const auto key = [directed](VertexId u, VertexId v) {
    if (!directed && u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  for (const CsrGraph::Edge& edge : graph.CollectEdges()) {
    edges.emplace_back(edge.u, edge.v);
    edge_set.insert(key(edge.u, edge.v));
  }
  VertexId n = graph.num_vertices();
  const bool weighted = graph.weighted();
  const auto random_weight = [&] {
    return weighted ? 0.5 + 1.5 * rng.NextDouble() : 1.0;
  };

  while (delta.size() < num_edits) {
    const double roll = rng.NextDouble();
    if (n < 2 || roll < 0.10) {
      // Append a vertex; attach it so it participates in shortest paths.
      delta.AddVertices(1);
      const VertexId fresh = n++;
      if (fresh > 0 && delta.size() < num_edits) {
        const VertexId anchor = rng.NextVertex(fresh);
        delta.AddEdge(anchor, fresh, random_weight());
        edges.emplace_back(anchor, fresh);
        edge_set.insert(key(anchor, fresh));
      }
    } else if (roll < 0.55 && !edges.empty()) {
      // Remove a uniform existing edge.
      const std::size_t idx =
          static_cast<std::size_t>(rng.NextBounded(edges.size()));
      const auto [u, v] = edges[idx];
      edges[idx] = edges.back();
      edges.pop_back();
      edge_set.erase(key(u, v));
      delta.RemoveEdge(u, v);
    } else {
      // Insert a uniform non-edge (rejection sampling; dense graphs fall
      // back to a vertex append so the script always reaches its length).
      bool inserted = false;
      for (int attempt = 0; attempt < 64 && !inserted; ++attempt) {
        const VertexId u = rng.NextVertex(n);
        const VertexId v = rng.NextVertex(n);
        if (u == v || edge_set.count(key(u, v)) != 0) continue;
        delta.AddEdge(u, v, random_weight());
        edges.emplace_back(u, v);
        edge_set.insert(key(u, v));
        inserted = true;
      }
      if (!inserted) {
        delta.AddVertices(1);
        ++n;
      }
    }
  }
  return delta;
}

}  // namespace mhbc
