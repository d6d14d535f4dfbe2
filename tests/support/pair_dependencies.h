#pragma once

#include <vector>

#include "graph/csr_graph.h"

/// \file
/// Pair-dependency oracles for the tests: per-(s, t) quantities computed
/// from two independent BFS passes, without the backward sweep they
/// validate.

namespace mhbc {

/// Pair dependency delta_{st}(v) = sigma_st(v) / sigma_st for all v.
/// O(|V| + |E|) per (s, t) pair; an independent oracle for the Brandes
/// recursion. Unreachable t yields all-zeros.
std::vector<double> PairDependencies(const CsrGraph& graph, VertexId s,
                                     VertexId t);

/// sigma_st(v): number of shortest s-t paths through interior vertex v,
/// computed from two BFS passes as sigma_sv * sigma_vt when
/// d(s,v) + d(v,t) == d(s,t).
SigmaCount CountPathsThrough(const CsrGraph& graph, VertexId s, VertexId t,
                             VertexId v);

}  // namespace mhbc
