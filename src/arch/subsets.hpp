/// \file subsets.hpp
/// Connected physical-qubit subsets (Sec. 4.1) and the classes of them the
/// exact mapper has to solve.
///
/// When a circuit uses n < m logical qubits, the exact mapper may restrict
/// itself to an n-element subset of the physical qubits, solving one
/// (smaller) instance per subset. Only subsets whose induced coupling
/// subgraph is connected can host a mapping that brings arbitrary pairs
/// together (Example 9: every useful 4-subset of QX4 contains p3), so
/// disconnected subsets are never generated.

#pragma once

#include <cstddef>
#include <vector>

#include "arch/coupling_map.hpp"

namespace qxmap::arch {

/// The size-n subsets whose induced undirected coupling graph is connected,
/// in lexicographic order. This is the instance list of Sec. 4.1.
///
/// Enumerated with ESU (Wernicke, "Efficient detection of network motifs",
/// 2006), which visits each connected subset once by growing it from its
/// lowest qubit through exclusive neighbourhoods; the cost follows the
/// output size rather than C(m, n). The output is then sorted, so instance
/// indices are those of a lexicographic C(m, n) filter. n == 0 yields the
/// one empty subset.
/// \throws std::invalid_argument if n < 0 or n > m.
[[nodiscard]] std::vector<std::vector<int>> connected_subsets(const CouplingMap& cm, int n);

/// Which instances of a Sec. 4.1 list the exact mapper solves.
struct SubsetClasses {
  /// Number of directed-isomorphism classes among the induced coupling
  /// graphs of the list.
  std::size_t classes = 0;
  /// Ascending indices into the list: the lowest-index member of every
  /// class that no lower-index class dominates (see subset_classes).
  std::vector<std::size_t> solve;
};

/// Reduces a Sec. 4.1 instance list to the subsets that can win the exact
/// mapper's lowest-(cost, index) reduction.
///
/// Two subsets are in one class when their induced coupling graphs are
/// isomorphic as *directed* graphs. Class B is dominated by a lower-index
/// class A when B's graph, relabelled by some bijection σ, is a directed-
/// edge subset of A's (an embedding; with equal edge counts it would be an
/// isomorphism, so only graphs with strictly fewer edges are tested).
///
/// Why skipping is exact, for every engine and objective: the cost model
/// is resolved once on the whole architecture (a SWAP weight and a
/// reversal weight), and the permutation points G′ are computed once for
/// all instances, so an instance's Eq. (5) optimum depends only on its
/// induced directed graph. Isomorphic subsets therefore have equal optima,
/// and the class's lowest index wins any tie among them. Under an
/// embedding σ of B into A, every route of B maps onto A: a CNOT native on
/// B stays native on A, a reversed one is native or reversed on A, and
/// since B's couplings are A's, swaps_A(σπσ⁻¹) <= swaps_B(π) for every
/// permutation π. So opt(A) <= opt(B) with A at the lower index, and B can
/// at best tie and lose the tie-break. Embeddings compose, so testing B
/// only against the classes kept so far finds every dominated class. The
/// full sweep's winner is thus always in `solve`, and solving `solve`
/// alone selects the same subset at the same cost.
///
/// The class key is the lexicographically smallest adjacency string over
/// the relabellings that sort vertices by (in-degree, out-degree) and
/// permute within ties, pruned on prefixes; isomorphic graphs get equal
/// keys. Dominance is a backtracking embedding search with degree pruning.
/// Both are meant for the instance sizes an exact solve can take (n <= 8).
[[nodiscard]] SubsetClasses subset_classes(const CouplingMap& cm,
                                           const std::vector<std::vector<int>>& subsets);

}  // namespace qxmap::arch
