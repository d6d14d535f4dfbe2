#include "baselines/geisberger_sampler.h"

namespace mhbc {

GeisbergerSampler::GeisbergerSampler(const CsrGraph& graph,
                                     std::uint64_t seed,
                                     DependencyOracle* shared_oracle)
    : graph_(&graph),
      owned_oracle_(shared_oracle ? nullptr
                                  : std::make_unique<DependencyOracle>(graph)),
      oracle_(shared_oracle ? shared_oracle : owned_oracle_.get()),
      rng_(seed) {
  MHBC_DCHECK(!graph.weighted());
  MHBC_DCHECK(graph.num_vertices() >= 2);
  aux_.assign(graph.num_vertices(), 0.0);
  scaled_.assign(graph.num_vertices(), 0.0);
}

const std::vector<double>& GeisbergerSampler::ScaledDependencies(VertexId s) {
  const ShortestPathDag& dag = oracle_->RunPass(s);
  for (VertexId v : touched_) {
    aux_[v] = 0.0;
    scaled_[v] = 0.0;
  }
  touched_.assign(dag.order.begin(), dag.order.end());

  ForEachDeepestFirst(dag, [this, &dag, s](VertexId w) {
    if (w == s) return;
    const std::uint32_t dw = dag.dist[w];
    // Contribution of target w itself (1/d(s,w)) plus accumulated flows.
    const double coeff = (1.0 / static_cast<double>(dw) + aux_[w]) /
                         static_cast<double>(dag.sigma[w]);
    for (VertexId v : dag.predecessors(w)) {
      aux_[v] += static_cast<double>(dag.sigma[v]) * coeff;
    }
    scaled_[w] = static_cast<double>(dw) * aux_[w];
  });
  scaled_[s] = 0.0;
  return scaled_;
}

double GeisbergerSampler::Estimate(VertexId r, std::uint64_t num_samples) {
  MHBC_DCHECK(r < graph_->num_vertices());
  MHBC_DCHECK(num_samples > 0);
  const double n = static_cast<double>(graph_->num_vertices());
  double acc = 0.0;
  for (std::uint64_t i = 0; i < num_samples; ++i) {
    const VertexId s = rng_.NextVertex(graph_->num_vertices());
    acc += 2.0 * ScaledDependencies(s)[r];
  }
  // E[2*delta'_s(r)] = raw BC(r) / n under uniform s, so raw ~= mean * n and
  // the Eq. 1 normalization divides by n(n-1).
  const double mean = acc / static_cast<double>(num_samples);
  return mean / (n - 1.0);
}

}  // namespace mhbc
