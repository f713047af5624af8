/// \file encoder.hpp
/// The symbolic formulation of Sec. 3.2: variables x^k_ij, y^k_π, z^k and
/// constraints Eqs. (1)–(4) with the objective Eq. (5), emitted into a
/// ReasoningEngine.
///
/// Conventions (all 0-based):
///  * k indexes the CNOT gates of the skeleton, 0 … K-1; x^k describes the
///    logical→physical mapping *before* gate k.
///  * A "permutation point" k (k >= 1) allows the mapping to change between
///    gates k-1 and k; the initial mapping (before gate 0) is always free.
///  * x^k is a fresh m·n block at gate 0 and at each point; other gates
///    reuse their predecessor's ids, and Eq. (1) is stated once per block.
///  * Eq. (3) keeps what Eq. (1) does not imply: y^k_π ∧ x^{k-1}_ij →
///    x^k_{π(i)j} per (π, i, j) and at-least-one over the y^k_π. The
///    converse holds since logical j sits at one i′ before the gate, hence
///    at π(i′) after it, and Eq. (1) allows one position: π(i′) = π(i).
///    With n = m two true y's would send an occupied qubit to two places;
///    with n < m two π may agree on every occupied qubit, so an
///    at-most-one is added and the objective picks the cheaper.
///  * Eq. (4) is strengthened to z^k ↔ (reverse placement ∧ ¬forward
///    placement) so that bidirected couplings do not pay the 4-H penalty;
///    on the antisymmetric QX coupling maps this is exactly Eq. (4).
///  * Eq. (5) charges each point through a unary swap-count ladder rather
///    than one weighted term per y^k_π: with S the largest swaps(π), fresh
///    rungs c^k_1..c^k_S satisfy c^k_s ↔ ∨{ y^k_π : swaps(π) >= s }
///    (clauses y^k_π → c^k_{swaps(π)}, c^k_{s+1} → c^k_s and
///    c^k_s → ∨{ y^k_π : swaps(π) >= s }), and each rung costs one SWAP
///    weight. The link holds both ways, so exactly swaps(π) rungs are true
///    for the chosen π and the objective equals Eq. (5) in every model.
///    The cost bound then sums S rungs per point that imply each other,
///    instead of m!-1 weighted y's it would treat as independent.

#pragma once

#include <cstddef>
#include <vector>

#include "arch/coupling_map.hpp"
#include "arch/swap_costs.hpp"
#include "common/permutation.hpp"
#include "exact/types.hpp"
#include "ir/gate.hpp"
#include "reason/engine.hpp"

namespace qxmap::exact {

/// Variable bookkeeping plus the data needed to decode a model.
///
/// The formulation splits into a coupling-independent *prefix* — the x/y
/// variables with Eq. (1) and Eq. (3), fixed by (skeleton, n, m, G') alone —
/// and a per-instance *suffix*: Eq. (2)/(4) over the coupling map's edges
/// plus every cost term, the Eq. (5) ladders included (swaps(π) depends on
/// the induced map). The Sec. 4.1 subset instances of one circuit all
/// share the prefix, so build_prefix() captures it once as an
/// engine-agnostic clause list and the prefix constructor replays it
/// (remapping the prefix-local variable ids into the engine) or — when the
/// engine still holds the prefix from a ReasoningEngine::reset_to_prefix()
/// — skips straight to the suffix.
class Encoding {
 public:
  /// The shared, engine-agnostic part of the formulation. Clause literals
  /// are DIMACS-like over prefix-local variable ids 0..var_count-1; the
  /// prefix constructor remaps them into engine variables at load time.
  struct Prefix {
    int num_gates = 0;
    int m = 0;
    int n = 0;
    std::vector<std::pair<int, int>> gates;    ///< (control, target) per CNOT
    std::vector<std::size_t> perm_points;      ///< sorted G'
    std::vector<Permutation> perms;            ///< Π = S_m
    std::vector<int> x;                        ///< (k*m + i)*n + j
    std::vector<std::vector<int>> y;           ///< [point index][perm index]
    std::vector<std::vector<int>> clauses;     ///< Eq. (1) + Eq. (3)
    std::size_t var_count = 0;
    std::size_t clause_count = 0;
  };

  /// Captures the coupling-independent prefix for (skeleton, n, m, G').
  ///
  /// \param cnots the CNOT skeleton (logical qubit pairs), non-empty
  /// \param num_logical n (> largest qubit index used by `cnots`)
  /// \param num_physical m >= n (the subset size; every Sec. 4.1 subset
  ///        instance of an n-qubit circuit has m = n)
  /// \param perm_points G' (0-based ks, each >= 1)
  [[nodiscard]] static Prefix build_prefix(const std::vector<Gate>& cnots, int num_logical,
                                           int num_physical,
                                           const std::vector<std::size_t>& perm_points);

  /// Builds the full formulation into `engine`.
  ///
  /// \param engine the reasoning engine receiving clauses and costs
  /// \param cnots the CNOT skeleton (logical qubit pairs), non-empty
  /// \param num_logical n (> largest qubit index used by `cnots`)
  /// \param cm coupling map with m >= n physical qubits
  /// \param table swaps(π) for this coupling map
  /// \param perm_points G' (0-based ks, each >= 1)
  /// \param costs SWAP / direction-switch weights (resolved, not -1)
  Encoding(reason::ReasoningEngine& engine, const std::vector<Gate>& cnots, int num_logical,
           const arch::CouplingMap& cm, const arch::SwapCostTable& table,
           const std::vector<std::size_t>& perm_points, const CostModel& costs);

  /// Builds the formulation from a shared prefix plus the per-instance
  /// suffix for `cm`. With `engine_holds_prefix == false` the prefix is
  /// replayed into `engine` — which must be fresh (no variables yet) so the
  /// prefix-local→engine variable map is the identity — and the engine is
  /// asked to mark_prefix() so later instances can reset to this point.
  /// With `engine_holds_prefix == true` the engine must already hold
  /// exactly the prefix (a reset_to_prefix() engine) and only the suffix is
  /// emitted. `cm.num_physical()` must equal `prefix.m`.
  Encoding(reason::ReasoningEngine& engine, const Prefix& prefix, const arch::CouplingMap& cm,
           const arch::SwapCostTable& table, const CostModel& costs, bool engine_holds_prefix);

  /// A decoded model.
  struct Solution {
    /// layouts[k][j] = physical qubit of logical j before gate k.
    std::vector<std::vector<int>> layouts;
    /// reversed[k] = gate k executed against the edge direction (z^k).
    std::vector<bool> reversed;
    /// Permutation chosen at each permutation point, aligned with the
    /// perm_points vector passed to the constructor.
    std::vector<Permutation> point_perms;
    /// Objective value recomputed from the model (Eq. 5).
    long long cost_f = 0;
  };

  /// Reads the model back from the engine (call after a successful
  /// minimize()).
  [[nodiscard]] Solution decode() const;

  [[nodiscard]] int num_gates() const noexcept { return num_gates_; }
  [[nodiscard]] int num_logical() const noexcept { return n_; }
  [[nodiscard]] int num_physical() const noexcept { return m_; }
  [[nodiscard]] std::size_t num_variables() const noexcept { return var_count_; }
  [[nodiscard]] std::size_t num_clauses() const noexcept { return clause_count_; }

 private:
  Encoding(reason::ReasoningEngine& engine, const Prefix& prefix, const arch::CouplingMap& cm,
           const arch::SwapCostTable& table, const CostModel& costs, bool engine_holds_prefix,
           bool mark);

  /// Emits Eq. (2)/(4) and all cost terms for `cm` (the per-instance part).
  void encode_suffix(const arch::CouplingMap& cm);

  [[nodiscard]] int x_var(int k, int i, int j) const {
    return x_[static_cast<std::size_t>((k * m_ + i) * n_ + j)];
  }

  reason::ReasoningEngine& engine_;
  int num_gates_;
  int m_;
  int n_;
  std::vector<std::pair<int, int>> gates_;  // (control, target) per CNOT
  CostModel costs_;
  std::vector<std::size_t> perm_points_;
  std::vector<Permutation> perms_;
  std::vector<int> perm_swaps_;
  std::vector<int> x_;                   // (k*m + i)*n + j
  std::vector<std::vector<int>> y_;      // [point index][perm index]
  std::vector<int> z_;                   // [k]
  std::size_t var_count_ = 0;
  std::size_t clause_count_ = 0;
};

}  // namespace qxmap::exact
