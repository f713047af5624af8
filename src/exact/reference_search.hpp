/// \file reference_search.hpp
/// The layout DP: a shortest-path search over (gate, placement) states.
///
/// For small architectures (the regime where the paper's exact method is
/// applicable at all) the minimal added cost F can also be computed
/// directly, without a symbolic formulation. The states are the injective
/// logical → physical placements before each gate. Between consecutive
/// gates the placement may change only at permutation points; there it
/// moves along the single-SWAP placement graph (one edge per coupling edge,
/// `swap_cost` each), so a multi-source Dijkstra per point relaxes every
/// placement to its cheapest reachable cost. Executing a CNOT against the
/// edge direction pays `reverse_cost`; a CNOT on an uncoupled pair is not
/// executable at that placement. Swapping only along coupling edges gives
/// the same transition cost as the paper's swaps(π) over every permutation
/// consistent with both placements, so the DP minimum equals Eq. (5)'s.
///
/// One implementation serves three callers: the exact mapper's default
/// engine (EngineKind::Dp), the test-suite's certifier for the reasoning
/// engines, and the benchmarks' fast reference.

#pragma once

#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

#include "arch/coupling_map.hpp"
#include "exact/types.hpp"
#include "ir/gate.hpp"

namespace qxmap::exact {

/// A route through the placement graph, or why there is none. map_exact
/// reduces and replays this type for every engine: the DP returns it, and
/// a SAT engine's winning model is converted to it.
struct LayoutRoute {
  /// Optimal when a route exists (a SAT model may also be Feasible); Unsat
  /// when no placement sequence executes every gate under the permutation
  /// points; Unknown when the deadline passed first (the remaining fields
  /// are then empty — never a partial cost).
  reason::Status status = reason::Status::Unknown;
  long long cost = 0;  ///< the route's objective under the resolved weights
  std::vector<int> initial;  ///< placement before gate 0: logical j -> physical qubit
  /// swaps[k]: the SWAPs (coupled physical pairs) applied right before
  /// gate k, in order. The DP lists the lower qubit of each pair first; a
  /// route from a SAT model keeps SwapCostTable::swap_sequence's order,
  /// which decides how a bidirected SWAP is realised. swaps[0] is always
  /// empty: the initial placement is free.
  std::vector<std::vector<std::pair<int, int>>> swaps;
};

/// Finds a minimal-cost route for the CNOT skeleton `cnots` over
/// `num_logical` qubits on `cm`, allowing placement changes only at
/// `perm_points` (0-based gate indices >= 1; pass every index 1 … K-1 for
/// the unrestricted Sec. 3 optimum).
///
/// Deterministic tie-break: placements are indexed in lexicographic order.
/// Each relaxation pops placements in (cost, index) order and a parent is
/// only replaced by a strictly cheaper arrival, so every placement keeps
/// its cheapest, then lowest-index, parent — and staying put beats any
/// equal-cost SWAP path. The route ends at the cheapest, then
/// lowest-index, placement after the last gate. The result is a pure
/// function of the arguments (the deadline aside).
///
/// \param costs resolved cost model (swap_cost > 0)
/// \param deadline checked once per gate; once passed, the search stops
///        and reports Unknown
/// \throws std::invalid_argument on inconsistent arguments; architectures
/// with more than 8 physical qubits are rejected (placement enumeration).
[[nodiscard]] LayoutRoute search_layouts(
    const std::vector<Gate>& cnots, int num_logical, const arch::CouplingMap& cm,
    const std::vector<std::size_t>& perm_points, const CostModel& costs,
    std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max());

/// Result of the certifier.
struct ReferenceResult {
  bool feasible = false;
  long long cost_f = 0;  ///< minimal F (Eq. 5) under the given permutation points
};

/// search_layouts without a deadline, reduced to its optimum.
[[nodiscard]] ReferenceResult minimal_cost_reference(const std::vector<Gate>& cnots,
                                                     int num_logical,
                                                     const arch::CouplingMap& cm,
                                                     const std::vector<std::size_t>& perm_points,
                                                     const CostModel& costs);

}  // namespace qxmap::exact
