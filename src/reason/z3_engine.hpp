/// \file z3_engine.hpp
/// Z3-backed reasoning engine — the backend the paper used.
///
/// The objective (Eq. 5) is expressed through weighted soft constraints
/// ¬v with weight w for every add_cost(v, w): Z3's optimize core then
/// minimizes the total weight of violated soft constraints, which equals
/// the paper's F. The heavy Z3 types are kept out of this header (pimpl)
/// so the rest of the library does not compile against z3++.h.
///
/// External bounds (set_upper_bound and polled bound-source values) become
/// *hard* pseudo-Boolean constraints `Σ wᵢ·vᵢ <= bound`, so every model Z3
/// reports already respects the tightest bound. Cooperative tightening
/// (docs/concurrency.md) uses assumption-free re-solves: with a bound source
/// installed, minimize() slices its budget into kPollInterval chunks,
/// consults the source between chunks, asserts any tighter bound, and
/// re-checks — Z3 itself offers no mid-check constraint injection.

#pragma once

#include <memory>

#include "reason/engine.hpp"

namespace qxmap::reason {

/// ReasoningEngine implementation on top of z3::optimize.
class Z3Engine final : public ReasoningEngine {
 public:
  /// Initial budget slice between bound-source checkpoints (only used when
  /// a bound source is installed; otherwise one full-budget check runs).
  /// Because every re-check restarts Z3's search, the slice doubles after
  /// each checkpoint that brought no tighter bound — bounding total restart
  /// waste — and resets to this value when one does.
  static constexpr std::chrono::milliseconds kPollInterval{250};

  Z3Engine();
  ~Z3Engine() override;

  Z3Engine(const Z3Engine&) = delete;
  Z3Engine& operator=(const Z3Engine&) = delete;

  int new_bool() override;
  void add_clause(const std::vector<int>& lits) override;
  void add_cost(int var, long long weight) override;
  /// Asserts the hard PB constraint `objective <= bound` (inclusive).
  void set_upper_bound(long long bound) override;
  Outcome minimize(std::chrono::milliseconds budget) override;
  /// One plain z3::solver check of the hard clauses and the asserted PB
  /// bounds, with the soft terms left out; polls no bound source.
  Outcome find_model(std::chrono::milliseconds budget) override;
  [[nodiscard]] bool value(int var) const override;
  [[nodiscard]] std::string name() const override { return "z3"; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qxmap::reason
