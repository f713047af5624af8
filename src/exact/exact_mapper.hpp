/// \file exact_mapper.hpp
/// Top-level driver of the paper's method: minimal (or close-to-minimal)
/// mapping of a quantum circuit to an IBM QX architecture.
///
/// Pipeline (Secs. 3–4):
///  1. extract the CNOT skeleton (single-qubit gates never violate coupling
///     constraints, footnote 3);
///  2. choose permutation points G' per the configured strategy (Sec. 4.2);
///  3. build one instance over all m physical qubits — or, with
///     ExactOptions::use_subsets, one per connected n-subset (Sec. 4.1),
///     of which only the lowest-index member of each isomorphism class
///     that no lower-index class dominates can win (arch::subset_classes)
///     — and minimize Eq. (5) on each of those, sharded across the process-wide
///     executor (at most ExactOptions::num_threads at once) and reduced to
///     the lowest cost, ties to the lowest subset index (bit-identical at
///     any thread count; protocol spec in docs/concurrency.md):
///     - Dp (the default): the layout DP of exact/reference_search.hpp
///       returns an optimal route per instance;
///     - Cdcl / Z3: each shard owns its reasoning engine, instances pop in
///       subset-index order, a shared atomic bound feeds every shard's
///       Eq. (5) upper bound at solve start and mid-solve, and with more
///       than one solve the winner's first model under its cost is
///       re-derived canonically; swaps(π) tables come from the
///       process-wide arch::SwapCostCache;
///  4. take the winner as a subset-local LayoutRoute — the DP's own, or the
///     decoded model's permutations as SWAP chains along coupling edges —
///     and lift it to global qubits through the Router, re-attaching the
///     single-qubit gates and H-conjugating direction-reversed CNOTs
///     (Fig. 3);
///  5. verify the result (GF(2) skeleton check; statevector equivalence on
///     small architectures).

#pragma once

#include "arch/coupling_map.hpp"
#include "exact/types.hpp"
#include "ir/circuit.hpp"

namespace qxmap::exact {

/// Maps `circuit` to `cm`. Raw SWAP pseudo-gates in the input are
/// decomposed into their Fig. 3 elementary form up front and routed like
/// any other gates.
///
/// \throws std::invalid_argument if the circuit has more qubits than the
/// architecture or the configuration is unusable (e.g. full-architecture
/// mode with m > 8, where Π cannot be enumerated).
[[nodiscard]] MappingResult map_exact(const Circuit& circuit, const arch::CouplingMap& cm,
                                      const ExactOptions& options = {});

}  // namespace qxmap::exact
