#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exact/dependency_oracle.h"
#include "graph/csr_graph.h"
#include "util/rng.h"

/// \file
/// Geisberger-Sanders-Schultes linear-scaling source sampler ([17], §3.2 of
/// the paper). Uniform source sampling, but each pair contribution is
/// scaled by d(s,v)/d(s,t) so that vertices do not profit from being near a
/// sampled source — the bias the plain Brandes-Pich scheme suffers from.
///
/// Unbiasedness: for an ordered pair (s,t) and an interior v, the two
/// directions contribute d(s,v)/d(s,t) + d(t,v)/d(t,s) = 1 (v lies on a
/// shortest path), so 2x the linear-scaled dependency summed over uniform
/// sources has expectation equal to the raw betweenness. That identity
/// needs d(s,t) = d(t,s): on directed graphs the estimator is biased, and
/// the engine registry rejects it there.

namespace mhbc {

/// Linear-scaling betweenness estimator for a single vertex.
class GeisbergerSampler {
 public:
  /// Graph must be unweighted and outlive the sampler. Passes run through
  /// `shared_oracle` when non-null (bound to the same graph, outliving the
  /// sampler; the scaled sweep reads its DAG and never its memo), else
  /// through an owned default-tuned one. Estimates are bit-identical
  /// across every SpdOptions setting (the scaled sweep runs in the
  /// canonical deepest-first order either way).
  GeisbergerSampler(const CsrGraph& graph, std::uint64_t seed,
                    DependencyOracle* shared_oracle = nullptr);

  /// Paper-normalized estimate of BC(r) from `num_samples` uniform sources.
  /// Per sample: one BFS pass + one linear-scaled accumulation (O(|E|)).
  double Estimate(VertexId r, std::uint64_t num_samples);

  /// Rewinds the random stream to that of a fresh sampler seeded `seed`
  /// (reuse contract: consecutive Estimate calls continue one stream).
  void Reset(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Total shortest-path passes consumed so far through this sampler's
  /// oracle (a shared oracle also counts the other users' work).
  std::uint64_t num_passes() const { return oracle_->num_passes(); }

 private:
  /// Linear-scaled dependency of source s on every vertex, via the
  /// generalized recursion A(v) = sum_{w: v in P_s(w)} sigma_sv/sigma_sw *
  /// (1/d(s,w) + A(w)), delta'(v) = d(s,v) * A(v).
  const std::vector<double>& ScaledDependencies(VertexId s);

  const CsrGraph* graph_;
  std::unique_ptr<DependencyOracle> owned_oracle_;
  DependencyOracle* oracle_;
  Rng rng_;
  std::vector<double> aux_;     // A(v)
  std::vector<double> scaled_;  // delta'(v)
  std::vector<VertexId> touched_;
};

}  // namespace mhbc
