#include "baselines/rk_sampler.h"

#include <cmath>
#include <span>

namespace mhbc {

RkSampler::RkSampler(const CsrGraph& graph, std::uint64_t seed,
                     DependencyOracle* shared_oracle)
    : graph_(&graph),
      owned_oracle_(shared_oracle ? nullptr
                                  : std::make_unique<DependencyOracle>(graph)),
      oracle_(shared_oracle ? shared_oracle : owned_oracle_.get()),
      rng_(seed) {
  MHBC_DCHECK(graph.num_vertices() >= 2);
}

void RkSampler::SampleOnePath(std::vector<double>* credit) {
  const VertexId n = graph_->num_vertices();
  VertexId s = rng_.NextVertex(n);
  VertexId t = rng_.NextVertex(n);
  while (t == s) t = rng_.NextVertex(n);

  const ShortestPathDag& dag = oracle_->RunPass(s);
  if (dag.sigma[t] == 0) return;  // unreached t: zero-credit sample

  // Backtrack from t, choosing predecessor z with probability
  // sigma_sz / sigma_sw, which selects each shortest s-t path uniformly.
  // Recorded parent lists are in canonical order (ascending id for BFS
  // passes), so the chosen path — and the RNG stream — is bit-identical
  // across α/β settings and thread counts.
  VertexId w = t;
  while (w != s) {
    const std::span<const VertexId> parents = dag.predecessors(w);
    MHBC_DCHECK(!parents.empty());
    const double total = static_cast<double>(dag.sigma[w]);
    double target = rng_.NextDouble() * total;
    // The fp tail (target still >= 0 after every parent) falls back to the
    // last parent.
    VertexId chosen = parents.back();
    for (VertexId z : parents) {
      target -= static_cast<double>(dag.sigma[z]);
      if (target < 0.0) {
        chosen = z;
        break;
      }
    }
    w = chosen;
    if (w != s) (*credit)[w] += 1.0;
  }
}

double RkSampler::Estimate(VertexId r, std::uint64_t num_samples) {
  MHBC_DCHECK(r < graph_->num_vertices());
  MHBC_DCHECK(num_samples > 0);
  std::vector<double> credit(graph_->num_vertices(), 0.0);
  for (std::uint64_t i = 0; i < num_samples; ++i) SampleOnePath(&credit);
  return credit[r] / static_cast<double>(num_samples);
}

std::vector<double> RkSampler::EstimateAll(std::uint64_t num_samples) {
  MHBC_DCHECK(num_samples > 0);
  std::vector<double> credit(graph_->num_vertices(), 0.0);
  for (std::uint64_t i = 0; i < num_samples; ++i) SampleOnePath(&credit);
  for (double& c : credit) c /= static_cast<double>(num_samples);
  return credit;
}

std::uint64_t RkSampler::SampleBound(std::uint32_t vertex_diameter, double eps,
                                     double delta) {
  MHBC_DCHECK(vertex_diameter >= 2);
  MHBC_DCHECK(eps > 0.0 && eps < 1.0);
  MHBC_DCHECK(delta > 0.0 && delta < 1.0);
  constexpr double kUniversalConstant = 0.5;
  // VC dimension of the range set is at most floor(log2(vd - 2)) + 1 for
  // vd > 2; a single-edge "path system" (vd == 2) has VC dimension 1.
  const double vc =
      vertex_diameter > 2
          ? std::floor(std::log2(static_cast<double>(vertex_diameter) - 2.0)) +
                1.0
          : 1.0;
  const double bound =
      kUniversalConstant / (eps * eps) * (vc + std::log(1.0 / delta));
  return static_cast<std::uint64_t>(std::ceil(bound));
}

}  // namespace mhbc
