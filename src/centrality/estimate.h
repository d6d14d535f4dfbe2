#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/common.h"

/// \file
/// Common result types of the unified estimation API (see
/// centrality/engine.h for the BetweennessEngine entry point).

namespace mhbc {

/// Which estimator backs an estimate.
enum class EstimatorKind {
  /// Exact Brandes (no sampling; `samples` ignored).
  kExact,
  /// The paper's single-space Metropolis-Hastings chain (§4.2) — the
  /// library's headline estimator (Eq. 7 chain average). Note: converges
  /// to E_pi[f], which exceeds BC(r) by up to the mu(r) factor on skewed
  /// dependency profiles (see core/theory.h ChainLimitEstimate).
  kMetropolisHastings,
  /// Library extension: the same MH chain's Rao-Blackwellized companion —
  /// the proposals of an independence chain are iid draws from the
  /// proposal distribution, so importance-averaging their dependencies is
  /// an *unbiased* estimator using the exact same shortest-path passes.
  kMhRaoBlackwell,
  /// Uniform source sampling (Bader et al. style).
  kUniformSource,
  /// Distance-proportional source sampling (Chehreghani 2014).
  kDistanceProportional,
  /// Riondato-Kornaropoulos shortest-path sampling.
  kShortestPath,
  /// Geisberger et al. linear-scaling source sampling.
  kLinearScaling,
};

/// Every EstimatorKind, in canonical (declaration) order. The single
/// source of truth the name round-trip, the estimator registry
/// (centrality/engine.h), and the experiment harnesses iterate.
const std::vector<EstimatorKind>& AllEstimatorKinds();

/// Returns a stable lowercase name ("mh", "uniform", ...) for tables/CLIs.
const char* EstimatorKindName(EstimatorKind kind);

/// Parses EstimatorKindName output back to the kind. Returns false on
/// unknown names.
bool ParseEstimatorKind(const std::string& name, EstimatorKind* kind);

/// Outcome of a single-vertex estimate.
struct BetweennessEstimate {
  /// Paper-normalized (Eq. 1) betweenness score in [0, 1].
  double value = 0.0;
  /// Shortest-path passes the call consumed (work unit; exact runs report
  /// n passes; cache-served engine calls can report 0).
  std::uint64_t sp_passes = 0;
  /// Wall-clock seconds.
  double seconds = 0.0;
  /// Estimator that produced the value.
  EstimatorKind kind = EstimatorKind::kExact;
};

/// One entry of a top-k result.
struct TopKEntry {
  VertexId vertex = kInvalidVertex;
  /// Paper-normalized estimated betweenness.
  double estimate = 0.0;
};

/// Indices into `scores`, highest score first. Stable: entries with equal
/// scores keep their input order (std::stable_sort contract) — callers may
/// rely on this for deterministic tie-breaking, e.g. "first-listed target
/// wins" in BetweennessEngine::RankTargets.
std::vector<std::size_t> RankOrderFromScores(const std::vector<double>& scores);

}  // namespace mhbc
