#pragma once

#include <cstdint>

#include "graph/csr_graph.h"
#include "util/rng.h"
#include "util/status.h"

/// \file
/// Deterministic synthetic graph generators.
///
/// These serve two roles: (1) closed-form topologies (path, cycle, star,
/// complete, trees, barbell) whose exact betweenness is known analytically,
/// used as test oracles; (2) random families (Erdős–Rényi, Barabási–Albert,
/// Watts–Strogatz, caveman) acting as SNAP-dataset stand-ins in the
/// experiment suite: same topology class and comparable scale, synthetic
/// so the benches run offline (datasets/registry.h).
///
/// All random generators take an explicit seed and are deterministic for a
/// fixed (parameters, seed) pair.

namespace mhbc {

/// Path graph 0-1-...-(n-1). Requires n >= 1.
CsrGraph MakePath(VertexId n);

/// Cycle 0-1-...-(n-1)-0. Requires n >= 3.
CsrGraph MakeCycle(VertexId n);

/// Star: center 0 connected to 1..n-1. Requires n >= 2.
CsrGraph MakeStar(VertexId n);

/// Complete graph K_n. Requires n >= 2.
CsrGraph MakeComplete(VertexId n);

/// Complete bipartite K_{a,b}; side A is [0,a), side B is [a,a+b).
CsrGraph MakeCompleteBipartite(VertexId a, VertexId b);

/// Balanced tree with given branching factor and depth (depth 0 = single
/// root). Vertices are numbered level by level, root = 0.
CsrGraph MakeBalancedTree(std::uint32_t branching, std::uint32_t depth);

/// Two K_k cliques joined by a path of `bridge_len` vertices (bridge_len may
/// be 0: the cliques share one connecting edge). Every bridge vertex is a
/// balanced vertex separator — the Theorem 2 workhorse.
CsrGraph MakeBarbell(VertexId clique_size, VertexId bridge_len);

/// `communities` cliques of `clique_size` vertices arranged in a ring, with
/// one inter-community edge between consecutive cliques (connected caveman
/// graph). Models strong community structure (Girvan–Newman use case).
CsrGraph MakeConnectedCaveman(VertexId communities, VertexId clique_size);

/// 2-D grid graph rows x cols with 4-neighborhood.
CsrGraph MakeGrid(VertexId rows, VertexId cols);

/// "Wheel": cycle of n-1 vertices all connected to hub 0. Requires n >= 4.
CsrGraph MakeWheel(VertexId n);

/// Lollipop: K_k clique attached to a path of `tail` vertices.
CsrGraph MakeLollipop(VertexId clique_size, VertexId tail);

/// Erdős–Rényi G(n, p). Self-loops excluded.
CsrGraph MakeErdosRenyiGnp(VertexId n, double p, std::uint64_t seed);

/// Erdős–Rényi G(n, m): exactly m distinct edges drawn uniformly.
/// Requires m <= n(n-1)/2.
CsrGraph MakeErdosRenyiGnm(VertexId n, std::uint64_t m, std::uint64_t seed);

/// Barabási–Albert preferential attachment: starts from a clique of
/// `edges_per_vertex` + 1 vertices, each new vertex attaches to
/// `edges_per_vertex` distinct existing vertices chosen proportionally to
/// degree. Produces the scale-free degree (and betweenness, Barthelemy 2004)
/// profile of social/collaboration networks.
CsrGraph MakeBarabasiAlbert(VertexId n, std::uint32_t edges_per_vertex,
                            std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice with k nearest neighbors per
/// side, each edge rewired with probability beta (rewiring keeps the graph
/// simple; edges that cannot be rewired stay). k must be even, k < n.
CsrGraph MakeWattsStrogatz(VertexId n, std::uint32_t k, double beta,
                           std::uint64_t seed);

/// Deterministic weakly-connected *directed* graph: the spine
/// 0→1→...→n-1 plus `extra_arcs` uniformly drawn arcs (self-loops
/// skipped, duplicate arcs merged — reciprocal pairs stay two arcs).
/// The directed stand-in the benches and tests share; n >= 2.
CsrGraph MakeRandomDirected(VertexId n, std::uint64_t extra_arcs,
                            std::uint64_t seed);

/// Assigns uniform random weights in [lo, hi] to an unweighted graph.
/// Directedness carries over (each arc draws its own weight).
CsrGraph AssignUniformWeights(const CsrGraph& graph, double lo, double hi,
                              std::uint64_t seed);

}  // namespace mhbc
