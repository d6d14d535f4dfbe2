#include "baselines/optimal_sampler.h"

namespace mhbc {

OptimalSampler::OptimalSampler(const CsrGraph& graph, std::uint64_t seed,
                               DependencyOracle* shared_oracle)
    : graph_(&graph),
      owned_oracle_(shared_oracle ? nullptr
                                  : std::make_unique<DependencyOracle>(graph)),
      oracle_(shared_oracle ? shared_oracle : owned_oracle_.get()),
      rng_(seed) {}

void OptimalSampler::PrepareTarget(VertexId r) {
  if (prepared_target_ == r) return;
  // The dependency profile [delta_{v.}(r)] over all sources v: one oracle
  // pass per source (memo hits, when the oracle caches, cost none).
  std::vector<double> profile(graph_->num_vertices(), 0.0);
  for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
    profile[v] = oracle_->Dependency(v, r);
  }
  raw_betweenness_ = 0.0;
  for (double d : profile) raw_betweenness_ += d;
  MHBC_DCHECK(raw_betweenness_ > 0.0);
  probabilities_.assign(profile.size(), 0.0);
  for (std::size_t v = 0; v < profile.size(); ++v) {
    probabilities_[v] = profile[v] / raw_betweenness_;
  }
  table_ = std::make_unique<DiscreteSampler>(profile);
  prepared_target_ = r;
}

const std::vector<double>& OptimalSampler::probabilities(VertexId r) {
  MHBC_DCHECK(r < graph_->num_vertices());
  PrepareTarget(r);
  return probabilities_;
}

double OptimalSampler::Estimate(VertexId r, std::uint64_t num_samples) {
  MHBC_DCHECK(r < graph_->num_vertices());
  MHBC_DCHECK(num_samples > 0);
  PrepareTarget(r);
  const double n = static_cast<double>(graph_->num_vertices());
  // Importance-weighted term delta / P[s] == raw BC(r) for every sample:
  // the variance is exactly zero ([13], "optimal sampling ... error 0").
  // We still draw and run the passes so work accounting stays comparable.
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
