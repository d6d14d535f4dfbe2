#include "baselines/distance_sampler.h"

namespace mhbc {

DistanceProportionalSampler::DistanceProportionalSampler(
    const CsrGraph& graph, std::uint64_t seed, DependencyOracle* shared_oracle)
    : graph_(&graph),
      owned_oracle_(shared_oracle ? nullptr
                                  : std::make_unique<DependencyOracle>(graph)),
      oracle_(shared_oracle ? shared_oracle : owned_oracle_.get()),
      rng_(seed) {}

void DistanceProportionalSampler::PrepareTarget(VertexId r) {
  if (prepared_target_ == r) return;
  const VertexId n = graph_->num_vertices();
  // The distance table costs one real, counted oracle pass from r; it
  // reads distances only.
  const ShortestPathDag& dag = oracle_->RunDistancePass(r);
  std::vector<double> weights(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    if (v == r) continue;
    if (graph_->weighted()) {
      if (dag.wdist[v] > 0.0) weights[v] = dag.wdist[v];
    } else if (dag.dist[v] != kUnreachedDistance) {
      weights[v] = static_cast<double>(dag.dist[v]);
    }
  }
  table_ = std::make_unique<DiscreteSampler>(weights);
  probabilities_.assign(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    probabilities_[v] = table_->Probability(v);
  }
  prepared_target_ = r;
}

double DistanceProportionalSampler::Estimate(VertexId r,
                                             std::uint64_t num_samples) {
  MHBC_DCHECK(r < graph_->num_vertices());
  MHBC_DCHECK(num_samples > 0);
  const double n = static_cast<double>(graph_->num_vertices());
  MHBC_DCHECK(n >= 2.0);
  PrepareTarget(r);
  double acc = 0.0;
  for (std::uint64_t i = 0; i < num_samples; ++i) {
    const auto s = static_cast<VertexId>(table_->Sample(&rng_));
    const double p = probabilities_[s];
    MHBC_DCHECK(p > 0.0);
    acc += oracle_->Dependency(s, r) / p;
  }
  const double raw = acc / static_cast<double>(num_samples);
  return raw / (n * (n - 1.0));
}

}  // namespace mhbc
