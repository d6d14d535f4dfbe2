#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"

/// \file
/// The paper's theoretical quantities, computed exactly from a dependency
/// profile (the vector delta_{v.}(r) over all sources v; see
/// exact/brandes.h DependencyProfile). Backs bench_paper's experiments E4
/// (bound validation), E5 (Theorem 2 mu scaling) and E15 (the bias
/// analysis), whose tables are committed in BENCH_paper.json.

namespace mhbc {

/// delta-bar(r): the average dependency on r over all n vertices
/// (Theorem 1's normalizer).
double MeanDependency(const std::vector<double>& profile);

/// mu(r): the smallest value satisfying Inequality 11,
/// delta_{v.}(r) <= mu(r) * delta-bar(r) for all v — i.e.
/// max_v delta_v / delta-bar. Requires a strictly positive mean
/// (r must have nonzero betweenness).
double MuFromProfile(const std::vector<double>& profile);

/// Eq. 14 / Eq. 27 sample bound: smallest T with
/// T >= mu^2 / (2 eps^2) * ln(2/delta). eps > 0, delta in (0,1).
std::uint64_t SampleBound(double mu, double eps, double delta);

/// Eq. 12 / Eq. 25 tail bound: 2 exp{-(T/2) (2 eps / mu - 3/T)^2}, clamped
/// to 1, and 1 when 2 eps / mu <= 3 / T (the bound's validity edge: the
/// paper approximates 3/T by 0 for large T).
double TailBound(double mu, double eps, std::uint64_t chain_length);

/// The value Eq. 7's chain average converges to as T grows:
/// E_pi[f] = sum_v delta_v^2 / (sum_v delta_v * (n-1)), with pi the
/// stationary distribution of Eq. 5. Comparing this against the true
/// BC(r) = sum_v delta_v / (n (n-1)) quantifies the estimator's
/// asymptotic bias; the gap factor is bounded by mu(r) (tight when the
/// support's dependencies are uniform, the Theorem 2 regime).
double ChainLimitEstimate(const std::vector<double>& profile);

/// Exact relative betweenness BC_{rj}(ri), Eq. 23: the *uniform* average
/// over v of min{1, delta_v(ri)/delta_v(rj)} (ClippedRatio conventions).
double ExactRelativeBetweenness(const std::vector<double>& profile_i,
                                const std::vector<double>& profile_j);

/// The value the joint-space estimate of BC_{rj}(ri) converges to:
/// E_{P_rj}[min{1, delta(ri)/delta(rj)}] =
///   sum_v min(delta_v(ri), delta_v(rj)) / sum_v delta_v(rj).
/// Note the numerator is symmetric in (i, j) — this is why the Eq. 22
/// *ratio* is exactly consistent for BC(ri)/BC(rj) (Theorem 3) even though
/// each side individually converges to this, not to Eq. 23.
double ChainLimitRelative(const std::vector<double>& profile_i,
                          const std::vector<double>& profile_j);

}  // namespace mhbc
