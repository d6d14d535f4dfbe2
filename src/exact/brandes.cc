#include "exact/brandes.h"

#include <algorithm>
#include <utility>

#include "exact/dependency_oracle.h"
#include "util/thread_pool.h"

namespace mhbc {

void NormalizeScores(std::vector<double>* scores, Normalization norm,
                     VertexId num_vertices, bool directed) {
  if (norm == Normalization::kNone) return;
  const double n = static_cast<double>(num_vertices);
  double divisor = 1.0;
  switch (norm) {
    case Normalization::kPaper:
      divisor = n * (n - 1.0);
      break;
    case Normalization::kUnorderedPairs:
      // Directed raw sums already count each ordered pair once — there is
      // no double-counted unordered pair to halve.
      divisor = directed ? 1.0 : 2.0;
      break;
    case Normalization::kNone:
      break;
  }
  MHBC_DCHECK(divisor > 0.0);
  for (double& s : *scores) s /= divisor;
}

namespace {

/// Shared driver: runs one pass per source in [begin, end) in ascending
/// order through an uncached oracle and hands each dependency vector to the
/// callback.
template <typename PerSource>
void ForEachSourceDependenciesInRange(const CsrGraph& graph, VertexId begin,
                                      VertexId end, SpdOptions spd,
                                      PerSource&& per_source) {
  DependencyOracle oracle(graph, spd);
  for (VertexId s = begin; s < end; ++s) per_source(oracle.Dependencies(s));
}

/// All sources, in order (the sequential driver behind
/// ExactBetweennessSingle and DependencyProfile).
template <typename PerSource>
void ForEachSourceDependencies(const CsrGraph& graph, SpdOptions spd,
                               PerSource&& per_source) {
  ForEachSourceDependenciesInRange(graph, 0, graph.num_vertices(), spd,
                                   std::forward<PerSource>(per_source));
}

/// Source shards for BrandesBetweenness. Fixed (a function of n only) so
/// the merge regrouping — and therefore every bit of the result — is
/// independent of the thread count. 32 shards parallelize well past the
/// core counts of the target machines while keeping the per-shard partial
/// vectors (32 * n doubles) an acceptable footprint.
constexpr std::size_t kBrandesSourceShards = 32;

}  // namespace

std::vector<double> ExactBetweenness(const CsrGraph& graph,
                                     Normalization norm, SpdOptions spd) {
  return BrandesBetweenness(graph, norm, 1, spd);
}

std::vector<double> BrandesBetweenness(const CsrGraph& graph,
                                       Normalization norm,
                                       unsigned num_threads, SpdOptions spd) {
  const VertexId n = graph.num_vertices();
  std::vector<double> scores(n, 0.0);
  if (n == 0) return scores;
  const std::size_t shards =
      std::min<std::size_t>(n, kBrandesSourceShards);
  ThreadPool pool(ResolveThreadCount(num_threads));
  // Pool-splitting policy: with source-parallelism active the shards
  // saturate the pool, so per-shard passes run sequentially (intra-pass
  // threads would only oversubscribe). A 1-wide pool leaves the caller's
  // intra-pass setting untouched — the passes become the parallel axis.
  if (pool.num_threads() > 1) spd.num_threads = 1;
  // Each shard accumulates its contiguous source range into a private
  // partial vector; the per-vertex sums regroup as
  //   ((partial_0 + partial_1) + partial_2) + ...
  // which depends only on the shard structure, not on which worker ran
  // which shard or how many workers there were.
  ParallelOrderedReduce<std::vector<double>>(
      &pool, shards,
      [&graph, n, shards, spd](unsigned, std::size_t shard) {
        const auto [shard_begin, shard_end] =
            ShardBounds(static_cast<std::size_t>(n), shard, shards);
        const auto begin = static_cast<VertexId>(shard_begin);
        const auto end = static_cast<VertexId>(shard_end);
        std::vector<double> partial(n, 0.0);
        ForEachSourceDependenciesInRange(
            graph, begin, end, spd,
            [&partial, n](const std::vector<double>& delta) {
              for (VertexId v = 0; v < n; ++v) partial[v] += delta[v];
            });
        return partial;
      },
      &scores,
      [n](std::vector<double>* accum, std::vector<double> partial,
          std::size_t) {
        for (VertexId v = 0; v < n; ++v) (*accum)[v] += partial[v];
      });
  NormalizeScores(&scores, norm, n, graph.directed());
  return scores;
}

double ExactBetweennessSingle(const CsrGraph& graph, VertexId r,
                              Normalization norm, SpdOptions spd) {
  MHBC_DCHECK(r < graph.num_vertices());
  double raw = 0.0;
  ForEachSourceDependencies(
      graph, spd,
      [&raw, r](const std::vector<double>& delta) { raw += delta[r]; });
  std::vector<double> one{raw};
  NormalizeScores(&one, norm, graph.num_vertices(), graph.directed());
  return one[0];
}

std::vector<double> DependencyProfile(const CsrGraph& graph, VertexId r,
                                      SpdOptions spd) {
  MHBC_DCHECK(r < graph.num_vertices());
  std::vector<double> profile(graph.num_vertices(), 0.0);
  VertexId source = 0;
  ForEachSourceDependencies(graph, spd,
                            [&profile, &source, r](const std::vector<double>& delta) {
                              profile[source] = delta[r];
                              ++source;
                            });
  return profile;
}

}  // namespace mhbc
