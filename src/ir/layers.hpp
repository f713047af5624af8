/// \file layers.hpp
/// Circuit layering / clustering utilities.
///
/// Two different groupings are needed:
///  * *ASAP layers* — maximal groups of gates acting on pairwise-disjoint
///    qubits where each gate is placed as early as dependencies allow. Used
///    by the heuristic mappers (this is the "layer" notion of Qiskit's swap
///    mapper and Zulehner's A* mapper, see footnote 7 of the paper).
///  * *Consecutive clusters* — maximal runs of *consecutive* gates whose
///    qubit sets satisfy a predicate. Used by the Sec. 4.2 permutation-point
///    strategies (*disjoint qubits* and *qubit triangle*), which only allow
///    re-mapping permutations at cluster boundaries.

#pragma once

#include <cstddef>
#include <vector>

#include "ir/circuit.hpp"

namespace qxmap {

/// Partitions the gate indices of `c` into ASAP layers: gate g is placed in
/// layer 1 + max(layer of any earlier gate sharing a qubit with g). A barrier
/// closes all layers: it is appended to the last one (a leading barrier
/// forms its own), so mappers that emit layer by layer keep it in place.
/// Returned layers are non-empty and ordered.
[[nodiscard]] std::vector<std::vector<std::size_t>> asap_layers(const Circuit& c);

/// Indices `s` (0 < s < gates.size()) at which a new cluster begins when
/// clustering consecutive gates into runs with pairwise-disjoint qubit sets.
/// The paper's *disjoint qubits* strategy allows permutations exactly before
/// each such start (Example 10: G' = {g3, g4, g5} for Fig. 1b).
[[nodiscard]] std::vector<std::size_t> disjoint_cluster_starts(const std::vector<Gate>& gates);

/// Indices at which a new cluster begins when clustering consecutive gates
/// into runs whose union of qubits has at most `max_qubits` elements. With
/// `max_qubits == 3` this is the paper's *qubit triangle* clustering
/// (Example 10: G' = {g2} for Fig. 1b).
[[nodiscard]] std::vector<std::size_t> bounded_qubit_cluster_starts(const std::vector<Gate>& gates,
                                                                    int max_qubits);

}  // namespace qxmap
