/// \file router.hpp
/// The routing core every mapper shares (Sec. 2.2, Fig. 3).
///
/// A route is a logical → physical layout plus the two circuits it
/// produces: the fully expanded physical circuit and the routing skeleton
/// (original CNOTs on physical qubits plus SWAP pseudo-gates) that GF(2)
/// verification replays. Mappers differ only in *which* SWAPs they insert —
/// exact model decoding, stochastic trials, A*, SABRE scoring, layer-weight
/// windows — so applying a SWAP, emitting a gate under the current layout
/// and turning the route into a MappingResult live here once.

#pragma once

#include <chrono>
#include <vector>

#include "arch/coupling_map.hpp"
#include "arch/distances.hpp"
#include "exact/types.hpp"
#include "ir/circuit.hpp"

namespace qxmap::exact {

/// Entry checks shared by every mapper. Throws std::invalid_argument,
/// prefixed with `who`, when `circuit` needs more qubits than `cm` has or —
/// with `require_connected` — when the coupling graph is disconnected.
/// Returns true when the circuit holds raw SWAP pseudo-gates: the caller
/// then maps `circuit.with_swaps_expanded()` instead, so their Fig. 3
/// elementary gates are routed like any others.
[[nodiscard]] bool needs_swap_expansion(const Circuit& circuit, const arch::CouplingMap& cm,
                                        const char* who, bool require_connected = true);

/// One route of a logical circuit onto a coupling map.
class Router {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts a route of `logical` on `cm` from `layout` (logical j →
  /// physical qubit). Both must outlive the router. With `emit` false the
  /// route tracks only the layout and the counters, for passes whose
  /// circuits would be discarded (SABRE's layout warm-up); such a route
  /// cannot be finished.
  Router(const Circuit& logical, const arch::CouplingMap& cm, std::vector<int> layout,
         bool emit = true);
  /// Starts from the trivial layout (logical j on physical j).
  Router(const Circuit& logical, const arch::CouplingMap& cm);

  /// Inserts SWAP(a, b) on coupled physical qubits: emits its Fig. 3
  /// realisation, records the skeleton SWAP and relabels the layout.
  void swap(int a, int b);

  /// Emits logical gate `g` under the current layout: barriers verbatim,
  /// single-qubit and non-unitary gates remapped (parameters and classical
  /// guard kept), a CNOT on its physical pair — H-conjugated, and counted as
  /// reversed, when only the opposite direction is coupled.
  /// \throws std::invalid_argument for a CNOT on uncoupled physical qubits.
  void emit(const Gate& g);

  /// Walks logical qubit `qc` toward `qt` along a shortest path: each step
  /// swaps qc's physical qubit with its first neighbour strictly closer to
  /// qt's, until the pair is coupled.
  void walk(int qc, int qt, const arch::DistanceMatrix& dist);

  /// `layout` with physical qubits a and b exchanged — what SWAP(a, b)
  /// would leave; scores candidate SWAPs without applying them. Inline: it
  /// sits in every mapper's candidate-scoring loop.
  [[nodiscard]] static std::vector<int> swapped(std::vector<int> layout, int a, int b) {
    for (auto& p : layout) {
      if (p == a) {
        p = b;
      } else if (p == b) {
        p = a;
      }
    }
    return layout;
  }

  [[nodiscard]] const std::vector<int>& layout() const noexcept { return layout_; }
  [[nodiscard]] int swaps() const noexcept { return swaps_; }
  [[nodiscard]] int reversed() const noexcept { return reversed_; }

  /// Moves the route into `res` and fills the shared result tail: cost_f
  /// (added gates over the logical circuit), objective and objective_cost
  /// under the resolved `costs`, the GF(2) skeleton check when `verify`, and
  /// the seconds since `start`. Everything else — engine name, status,
  /// instance counts — is the caller's, taken from `res` as given.
  /// \throws std::logic_error on a route built without `emit`.
  [[nodiscard]] MappingResult finish(MappingResult res, const CostModel& costs, bool verify,
                                     Clock::time_point start) &&;

 private:
  const Circuit* logical_;
  const arch::CouplingMap* cm_;
  std::vector<int> initial_;
  std::vector<int> layout_;
  Circuit mapped_;
  Circuit skeleton_;
  bool emit_;
  int swaps_ = 0;
  int reversed_ = 0;
};

}  // namespace qxmap::exact
