/// \file exact_mapper.hpp
/// Top-level driver of the paper's method: minimal (or close-to-minimal)
/// mapping of a quantum circuit to an IBM QX architecture.
///
/// Pipeline (Secs. 3–4):
///  1. extract the CNOT skeleton (single-qubit gates never violate coupling
///     constraints, footnote 3);
///  2. choose permutation points G' per the configured strategy (Sec. 4.2);
///  3. build one symbolic instance over all m physical qubits — or, with
///     ExactOptions::use_subsets, one per connected n-subset (Sec. 4.1) —
///     and minimize Eq. (5) with the configured reasoning engine; subset
///     instances are sharded across ExactOptions::num_threads workers, each
///     owning its engine, popping from a shared hardest-first queue, with a
///     shared atomic bound feeding every shard's Eq. (5) upper bound both
///     at solve start and at checkpoints mid-solve, plus a deterministic
///     lowest-cost/lowest-index reduction (results are bit-identical at any
///     thread count; protocol spec in docs/concurrency.md); swaps(π)
///     tables come from the process-wide arch::SwapCostCache;
///  4. decode the best model into layouts/permutations, synthesize SWAP
///     chains along coupling edges, re-attach the single-qubit gates, and
///     H-conjugate direction-reversed CNOTs (Fig. 3);
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
