#pragma once

#include "graph/csr_graph.h"
#include "exact/brandes.h"

/// \file
/// Set extensions of betweenness (§3.1 of the paper): pairwise
/// co-betweenness (shortest paths through *both* vertices; Kolaczyk et al.
/// 2009, Chehreghani 2014 WSDM) and group betweenness (through *at least
/// one*; Everett-Borgatti 1999), related by inclusion-exclusion.
///
/// These are exact, all-pairs-table computations: O(nm) time and O(n^2)
/// memory — small/mid graphs only, used as ground truth by the tests.

namespace mhbc {

/// Raw co-betweenness of the pair {u, w}: sum over ordered (s, t), s,t not
/// in {u,w}, of sigma_st(u and w)/sigma_st. Normalization as in brandes.h.
double CoBetweennessPair(const CsrGraph& graph, VertexId u, VertexId w,
                         Normalization norm = Normalization::kPaper);

/// Raw group betweenness of {u, w}: paths through u or w (or both),
/// endpoints excluded from {u, w}. Computed as BC-restricted(u) +
/// BC-restricted(w) - co(u, w) where the restricted scores exclude s/t in
/// {u, w}.
double GroupBetweennessPair(const CsrGraph& graph, VertexId u, VertexId w,
                            Normalization norm = Normalization::kPaper);

}  // namespace mhbc
