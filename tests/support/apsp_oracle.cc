#include "support/apsp_oracle.h"

#include <algorithm>
#include <cmath>

namespace mhbc {

namespace {
constexpr double kTieEpsilon = 1e-9;
}  // namespace

bool ApspOracle::Equal(double a, double b) const {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= kTieEpsilon * std::max(scale, 1.0);
}

ApspOracle::ApspOracle(const CsrGraph& graph) : n_(graph.num_vertices()) {
  const std::size_t total = static_cast<std::size_t>(n_) * n_;
  dist_.assign(total, -1.0);
  count_.assign(total, 0.0);
  for (VertexId v = 0; v < n_; ++v) {
    dist_[index(v, v)] = 0.0;
    count_[index(v, v)] = 1.0;
  }
  for (VertexId u = 0; u < n_; ++u) {
    const auto nbrs = graph.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const double w = graph.weighted() ? graph.weights(u)[i] : 1.0;
      dist_[index(u, nbrs[i])] = w;
    }
  }
  // Floyd-Warshall on distances.
  for (VertexId k = 0; k < n_; ++k) {
    for (VertexId i = 0; i < n_; ++i) {
      const double dik = dist_[index(i, k)];
      if (dik < 0.0) continue;
      for (VertexId j = 0; j < n_; ++j) {
        const double dkj = dist_[index(k, j)];
        if (dkj < 0.0) continue;
        const double through = dik + dkj;
        double& dij = dist_[index(i, j)];
        if (dij < 0.0 || through < dij) dij = through;
      }
    }
  }
  // Path counts by DP over the settled distance matrix: process target
  // vertices for each source in order of increasing distance; sigma(u,v) =
  // sum over neighbors z of v with d(u,z) + w(z,v) == d(u,v) of sigma(u,z).
  std::vector<VertexId> order(n_);
  for (VertexId u = 0; u < n_; ++u) {
    for (VertexId v = 0; v < n_; ++v) order[v] = v;
    std::sort(order.begin(), order.end(), [this, u](VertexId a, VertexId b) {
      const double da = dist_[index(u, a)];
      const double db = dist_[index(u, b)];
      // Unreachable last.
      if ((da < 0.0) != (db < 0.0)) return db < 0.0;
      return da < db;
    });
    for (VertexId v : order) {
      if (v == u) continue;
      const double duv = dist_[index(u, v)];
      if (duv < 0.0) break;  // all remaining are unreachable
      double sigma = 0.0;
      const auto nbrs = graph.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId z = nbrs[i];
        const double w = graph.weighted() ? graph.weights(v)[i] : 1.0;
        const double duz = dist_[index(u, z)];
        if (duz < 0.0) continue;
        if (Equal(duz + w, duv)) sigma += count_[index(u, z)];
      }
      count_[index(u, v)] = sigma;
    }
  }
}

double ApspOracle::PairDependency(VertexId u, VertexId v, VertexId w) const {
  MHBC_DCHECK(w < n_);
  if (w == u || w == v || u == v) return 0.0;
  const double duv = dist_[index(u, v)];
  if (duv < 0.0) return 0.0;
  const double duw = dist_[index(u, w)];
  const double dwv = dist_[index(w, v)];
  if (duw < 0.0 || dwv < 0.0) return 0.0;
  if (!Equal(duw + dwv, duv)) return 0.0;
  return count_[index(u, w)] * count_[index(w, v)] / count_[index(u, v)];
}

}  // namespace mhbc
