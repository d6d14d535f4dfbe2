#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exact/dependency_oracle.h"
#include "graph/csr_graph.h"
#include "util/rng.h"

/// \file
/// Distance-proportional source sampler of Chehreghani [13] (§3.2 of the
/// paper): P[s] = d(r,s) / sum_u d(r,u) over s in V \ {r}.

namespace mhbc {

/// Estimates BC(r) with distance-proportional importance sampling.
///
/// Intuition from [13]: far-away sources tend to have higher dependency on
/// r than the uniform average, so weighting by distance reduces variance on
/// many topologies (and the estimator stays unbiased thanks to the
/// importance weights delta / (P[s] * n(n-1))).
///
/// Setup costs one oracle pass from r, whose DAG distances make the table
/// (counted in num_passes; cached between calls with the same r); each
/// sample costs one shortest-path pass.
///
/// Undirected graphs only: the table weights sources by d(r, s), so on a
/// directed graph a source that only *reaches* r gets no mass and the
/// estimate is biased. The engine registry rejects it there.
///
/// Reuse contract: an instance may serve any number of Estimate calls for
/// any targets; the proposal table is rebuilt only when the target
/// changes. Reset(seed) rewinds the random stream so a cached instance
/// reproduces a fresh one bit-for-bit (the distance table is
/// deterministic, so it is deliberately *not* invalidated by Reset).
class DistanceProportionalSampler {
 public:
  /// Graph must outlive the sampler. A non-null `shared_oracle` (bound to
  /// the same graph, outliving the sampler) replaces the internally owned
  /// one; see DependencyOracle for the memoization this enables.
  DistanceProportionalSampler(const CsrGraph& graph, std::uint64_t seed,
                              DependencyOracle* shared_oracle = nullptr);

  /// Paper-normalized estimate of BC(r) from `num_samples` draws.
  double Estimate(VertexId r, std::uint64_t num_samples);

  /// Rewinds the random stream to that of a fresh sampler seeded `seed`.
  void Reset(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Total shortest-path passes, *including* the distance-setup pass each
  /// prepared target costs (a shared oracle also counts the other users'
  /// work).
  std::uint64_t num_passes() const { return oracle_->num_passes(); }

 private:
  /// (Re)builds the distance table for target r (cached between calls with
  /// the same r) from one oracle pass.
  void PrepareTarget(VertexId r);

  const CsrGraph* graph_;
  std::unique_ptr<DependencyOracle> owned_oracle_;
  DependencyOracle* oracle_;
  Rng rng_;
  VertexId prepared_target_ = kInvalidVertex;
  std::vector<double> probabilities_;  // indexed by vertex, 0 at r
  std::unique_ptr<DiscreteSampler> table_;
};

}  // namespace mhbc
