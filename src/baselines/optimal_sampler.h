#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exact/dependency_oracle.h"
#include "graph/csr_graph.h"
#include "util/rng.h"

/// \file
/// The *optimal* sampler of Chehreghani [13] (paper Eq. 5): sources drawn
/// with P_r[v] = delta_{v.}(r) / sum_u delta_{u.}(r).
///
/// Building this distribution requires the exact dependency profile — i.e.
/// the betweenness of r itself — so it is only usable as a validation
/// yardstick (importance weighting gives a zero-variance estimator). It is
/// also the *stationary distribution* of the paper's MH sampler, which is
/// how the library's tests verify the chain: the MH visit histogram must
/// converge to OptimalSampler::probabilities().

namespace mhbc {

/// Zero-variance reference sampler (needs O(nm) setup per target).
///
/// Reuse contract: serves repeated Estimate calls for any targets (the
/// Eq. 5 table is rebuilt only on target change, n oracle passes);
/// Reset(seed) rewinds the random stream to a fresh sampler's.
class OptimalSampler {
 public:
  /// A non-null `shared_oracle` (same graph, outliving the sampler)
  /// replaces the internally owned one.
  OptimalSampler(const CsrGraph& graph, std::uint64_t seed,
                 DependencyOracle* shared_oracle = nullptr);

  /// Paper-normalized estimate (equal to the exact value for any
  /// num_samples >= 1, up to floating-point accumulation).
  double Estimate(VertexId r, std::uint64_t num_samples);

  /// The exact stationary distribution P_r[.] of Eq. 5 for target r
  /// (computes the dependency profile on first use per target).
  const std::vector<double>& probabilities(VertexId r);

  /// Rewinds the random stream to that of a fresh sampler seeded `seed`.
  void Reset(std::uint64_t seed) { rng_ = Rng(seed); }

  std::uint64_t num_passes() const { return oracle_->num_passes(); }

 private:
  void PrepareTarget(VertexId r);

  const CsrGraph* graph_;
  std::unique_ptr<DependencyOracle> owned_oracle_;
  DependencyOracle* oracle_;
  Rng rng_;
  VertexId prepared_target_ = kInvalidVertex;
  std::vector<double> probabilities_;
  double raw_betweenness_ = 0.0;  // normalization constant of Eq. 5
  std::unique_ptr<DiscreteSampler> table_;
};

}  // namespace mhbc
