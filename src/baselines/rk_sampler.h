#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exact/dependency_oracle.h"
#include "graph/csr_graph.h"
#include "util/rng.h"

/// \file
/// Riondato-Kornaropoulos shortest-path sampler ([30], §3.2 of the paper):
/// draw a uniform vertex pair (s, t), pick one shortest s-t path uniformly
/// at random, and credit its interior vertices. The expected credit rate of
/// v is exactly the paper-normalized BC(v) (Eq. 1), and VC-dimension theory
/// gives a distribution-free sample bound in terms of the vertex diameter.
///
/// Supports weighted graphs: the path backtrack walks the recorded SPD
/// predecessor lists of whichever kernel the oracle runs.

namespace mhbc {

/// Shortest-path sampling estimator.
class RkSampler {
 public:
  /// Graph must outlive the sampler. Passes run through `shared_oracle`
  /// when non-null (bound to the same graph, outliving the sampler; the
  /// backtrack reads its DAG and never its memo), else through an owned
  /// default-tuned one. The sampled paths — and therefore the estimates —
  /// are bit-identical across every SpdOptions setting: the backtrack
  /// walks parents in a fixed canonical order either way.
  RkSampler(const CsrGraph& graph, std::uint64_t seed,
            DependencyOracle* shared_oracle = nullptr);

  /// Paper-normalized estimate of BC(r) from `num_samples` sampled paths.
  /// Per sample: one shortest-path pass + one backtrack.
  double Estimate(VertexId r, std::uint64_t num_samples);

  /// Estimates all vertices at once from `num_samples` paths (the [30]
  /// use case; the single-vertex harnesses read one entry).
  std::vector<double> EstimateAll(std::uint64_t num_samples);

  /// VC-dimension sample bound of [30]: r = (c/eps^2) *
  /// (floor(log2(vd - 2)) + 1 + ln(1/delta)), with the universal constant
  /// c = 0.5 and `vertex_diameter` the number of vertices on a longest
  /// shortest path. Requires vd >= 2; eps in (0,1), delta in (0,1).
  static std::uint64_t SampleBound(std::uint32_t vertex_diameter, double eps,
                                   double delta);

  /// Rewinds the random stream to that of a fresh sampler seeded `seed`
  /// (reuse contract: consecutive Estimate/EstimateAll calls continue one
  /// stream, so batched credit accumulation equals a single full run).
  void Reset(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Total shortest-path passes consumed so far through this sampler's
  /// oracle (a shared oracle also counts the other users' work).
  std::uint64_t num_passes() const { return oracle_->num_passes(); }

 private:
  /// Samples one shortest path; adds 1 to `credit[v]` for each interior
  /// vertex v of the chosen path. A disconnected pair contributes no credit
  /// but still counts as a sample (keeps Eq. 1 unbiasedness on general
  /// graphs).
  void SampleOnePath(std::vector<double>* credit);

  const CsrGraph* graph_;
  std::unique_ptr<DependencyOracle> owned_oracle_;
  DependencyOracle* oracle_;
  Rng rng_;
};

}  // namespace mhbc
