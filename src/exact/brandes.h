#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "sp/spd.h"

/// \file
/// Exact betweenness centrality (Brandes 2001), the ground truth every
/// estimator in this library is evaluated against.
///
/// Conventions. The *raw* score of v is sum over sources s != v of
/// delta_{s.}(v); on an undirected graph this counts each ordered
/// (s, t) pair, i.e. each unordered pair twice. The paper's Eq. 1/3
/// normalization divides the raw score by n(n-1), giving values in [0, 1].
/// On a directed graph ordered pairs are the native counting unit, so the
/// unordered-pair halving does not apply (kUnorderedPairs degrades to the
/// raw ordered-pair sum); kPaper's n(n-1) is already an ordered-pair
/// normalizer and carries over unchanged.

namespace mhbc {

/// How to scale raw dependency sums.
enum class Normalization {
  /// Raw sum of dependencies over sources (ordered-pair counting).
  kNone,
  /// Paper Eq. 1: divide by n(n-1). This is the library-wide default; all
  /// samplers estimate this quantity.
  kPaper,
  /// Classic undirected convention: divide by 2 (each unordered pair once).
  kUnorderedPairs,
};

/// Applies `norm` to a raw score vector (in place helper for callers that
/// compute raw sums themselves). `directed` drops the kUnorderedPairs
/// halving — ordered pairs are the native unit on directed graphs.
void NormalizeScores(std::vector<double>* scores, Normalization norm,
                     VertexId num_vertices, bool directed = false);

/// Exact betweenness of all vertices. O(nm) unweighted, O(nm + n^2 log n)
/// weighted. Works on disconnected graphs (unreachable pairs contribute 0).
/// Sequential across sources: exactly BrandesBetweenness(graph, norm, 1,
/// spd), so the two agree bit for bit. `spd` tunes the SPD passes and, via
/// spd.num_threads, frontier-parallel execution *within* each pass; scores
/// are bit-identical across α/β settings and thread counts.
std::vector<double> ExactBetweenness(const CsrGraph& graph,
                                     Normalization norm = Normalization::kPaper,
                                     SpdOptions spd = SpdOptions());

/// Source-parallel exact betweenness: the n single-source passes are
/// independent, so they are split into a *fixed* number of contiguous
/// source shards (a function of n only, never of the thread count), each
/// accumulated into its own per-shard score vector by whichever worker
/// claims it, and merged in shard order at the end. The fixed shard
/// structure plus the ordered merge make the result bit-identical at every
/// `num_threads` (0 = hardware concurrency, 1 = sequential).
/// Pool-splitting: when num_threads > 1 the
/// sources are the parallel axis and spd.num_threads is forced to 1
/// (intra-pass threads would oversubscribe); at num_threads == 1 the
/// caller's spd.num_threads applies within each pass. Either way the
/// result is bit-identical.
std::vector<double> BrandesBetweenness(
    const CsrGraph& graph, Normalization norm = Normalization::kPaper,
    unsigned num_threads = 0, SpdOptions spd = SpdOptions());

/// Exact betweenness of a single vertex r (same asymptotic cost as the full
/// computation — the point the paper's samplers attack — but with O(n)
/// memory for results instead of O(n)... provided for API symmetry and for
/// ground truth in the harnesses).
double ExactBetweennessSingle(const CsrGraph& graph, VertexId r,
                              Normalization norm = Normalization::kPaper,
                              SpdOptions spd = SpdOptions());

/// Exact dependency profile for a fixed target r: the vector
/// [delta_{v.}(r)] over all sources v. This is the unnormalized target
/// distribution of the paper's MH sampler (Eq. 5); its sum is the raw
/// betweenness of r. O(nm). Ground truth for mu(r) (core/theory.h) and
/// the exact per-sample variances (core/variance.h).
std::vector<double> DependencyProfile(const CsrGraph& graph, VertexId r,
                                      SpdOptions spd = SpdOptions());

}  // namespace mhbc
