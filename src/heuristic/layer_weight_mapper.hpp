/// \file layer_weight_mapper.hpp
/// Layer-weight iterative mapper in the spirit of HAIL/TANGO (see PAPERS.md)
/// — the escape hatch for architectures where the exact mapper's Sec. 4.1
/// subset enumeration explodes (heavy-hex 27/65/127 and beyond).
///
/// Routing works layer by layer (ir/layers.hpp ASAP layers), but unlike the
/// per-layer A* baseline each SWAP decision scores not just the current
/// layer's CNOTs but a weighted window of upcoming layers: SWAP s is scored
/// by Σᵢ w[i] · Σ_{(c,t) ∈ layer l+i} (hops(c, t) - 1) after applying s, so
/// a swap that helps the next few layers too beats one that only fixes the
/// present. The greedy phase accepts only strictly-improving swaps (which
/// guarantees termination — the score is a finite strictly-decreasing
/// measure); any CNOT still blocked afterwards is routed by a deterministic
/// shortest-path walk at emission, so every layer always completes. A
/// candidate SWAP re-measures only the pairs it moves and is screened by its
/// score change before the window is summed; the routes are bit-identical to
/// summing the whole window for every candidate (layer_weight_mapper.cpp
/// says why).
///
/// The *iterative* part: the whole route is re-run under several weight
/// profiles — profile 0 is the deterministic geometric decay w[i] = decayⁱ,
/// later profiles perturb the lookahead weights with seeded randomness — and
/// the cheapest result under the resolved cost model wins (deterministic per
/// seed, ties keep the earliest profile).

#pragma once

#include <cstdint>

#include "arch/coupling_map.hpp"
#include "exact/types.hpp"
#include "ir/circuit.hpp"

namespace qxmap::heuristic {

/// Options for the layer-weight mapper.
struct LayerWeightOptions {
  int iterations = 4;        ///< weight profiles tried (>= 1; profile 0 is deterministic)
  int lookahead_layers = 4;  ///< scoring window: current layer + this many - 1 ahead
  double decay = 0.4;        ///< profile-0 geometric weight decay per layer of lookahead
  std::uint64_t seed = 1;    ///< seeds the perturbed profiles (profiles >= 1)
  /// Objective weights (resolved against the architecture): picks the best
  /// profile and is reported via MappingResult::objective_cost.
  exact::CostModel costs;
  bool verify = true;        ///< GF(2)-verify the routed skeleton
};

/// Maps `circuit` to `cm`; engine_name is "layer-weight", status Feasible.
/// \throws std::invalid_argument on oversized circuits, disconnected
/// coupling graphs, non-positive iterations/lookahead, or a decay that is
/// negative or not finite.
[[nodiscard]] exact::MappingResult map_layer_weight(const Circuit& circuit,
                                                    const arch::CouplingMap& cm,
                                                    const LayerWeightOptions& options = {});

}  // namespace qxmap::heuristic
