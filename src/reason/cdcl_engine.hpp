/// \file cdcl_engine.hpp
/// Reasoning engine backed by the library's own CDCL solver (src/sat).
///
/// Optimisation is an incremental binary search on the cost bound (Sec. 3.3
/// "set F to a fixed value and approach towards the minimum, e.g., by
/// applying a binary search"). A first solve yields a model and an upper
/// bound; each probe at mid then asks for a model of cost <= mid. The
/// weighted bound (Eq. 5: 7 per true rung of each permutation point's
/// swap-count ladder, see exact/encoder.hpp, and 4 per z) is enforced with
/// a generalized totalizer (GTE): a tree over the weighted cost literals
/// whose root carries one "sum >= w" indicator per attainable weight w,
/// clamped one above the first bound enforced (an external bound or the
/// first model's cost). A probe asserts the *assumption* ¬(sum >= B') for
/// the smallest attainable B' > mid (monotonicity clauses force the rest),
/// so speculative bounds never enter the clause database and learnt
/// clauses, phases and activities survive every probe in both directions.
/// Only monotone facts (a model's own cost, external bounds) are committed
/// as permanent unit clauses. The search ends when the probe window is
/// empty: the last model is then provably optimal. When the budget runs out
/// first, the best model is reported as Feasible.
///
/// Cooperative tightening (docs/concurrency.md): with a bound source
/// installed, the loop polls it between probes and — via the SAT solver's
/// conflict-boundary interrupt — every kPollConflictInterval conflicts
/// *inside* a solve. A strictly tighter published bound aborts the in-flight
/// solve at the next conflict boundary, re-tightens the GTE with unit
/// clauses, and resumes; the solver keeps its learnt clauses and heuristic
/// state, so an abort never repeats completed work.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "reason/engine.hpp"
#include "sat/solver.hpp"

namespace qxmap::reason {

/// ReasoningEngine implementation on top of sat::Solver.
class CdclEngine final : public ReasoningEngine {
 public:
  int new_bool() override;
  void add_clause(const std::vector<int>& lits) override;
  void add_cost(int var, long long weight) override;
  /// Enforces objective <= bound via the GTE before the first solve, so the
  /// search starts below an externally known model cost.
  void set_upper_bound(long long bound) override;
  Outcome minimize(std::chrono::milliseconds budget) override;
  /// The first solve of minimize() alone: one model at or below every
  /// bound enforced so far, with no probes after it.
  Outcome find_model(std::chrono::milliseconds budget) override;
  [[nodiscard]] bool value(int var) const override;
  [[nodiscard]] std::string name() const override { return "cdcl"; }

  /// Prefix reuse (Sec. 4.1 subset sharding): snapshots the whole solver —
  /// clause arena, watches, VSIDS state — plus the engine-level objective
  /// bookkeeping. The solver's plain-data subsystems make this a member
  /// copy. reset_to_prefix() restores the copy, discarding every clause,
  /// learnt, cost term and bound added after the mark; stats() counters
  /// survive (they are cumulative per shard).
  bool mark_prefix() override;
  bool reset_to_prefix() override;

  /// Underlying solver statistics (for benchmarks).
  [[nodiscard]] const sat::SolverStats& solver_stats() const noexcept { return solver_.stats(); }

  /// In-solve bound-source poll cadence, in solver conflicts (the solver's
  /// interrupt hook fires once per conflict; every Nth consults the source).
  static constexpr int kPollConflictInterval = 128;

 private:
  /// Adds clauses enforcing objective <= bound (builds the GTE on first use,
  /// clamped at bound + 1). Tracks the tightest bound enforced so far.
  void add_cost_bound(long long bound);
  /// Enforces an *external* (inclusive) bound: objective <= bound. Also
  /// records it for the Optimal-vs-bounded-Unsat decision.
  void apply_external_bound(long long bound);
  /// Records a polled bound in external_limit_ (counting a tightening when
  /// it strictly improves), returning it. Every poll goes through here so
  /// the reported outcome matches "the tightest polled bound had been set
  /// before minimize()" even when the clause database needs no update.
  long long observe_external(long long ext);
  /// Between-solve checkpoint: consults the bound source and enforces the
  /// result when strictly tighter than everything enforced so far.
  void poll_and_tighten();
  [[nodiscard]] long long model_cost() const;
  void snapshot_model();
  /// Outcome when the budget expires: Feasible with the best model's cost,
  /// unless that cost exceeds the tightest external bound — a run with the
  /// bound set up front would have found nothing yet, so Unknown (the
  /// observed-vs-enforced contract, docs/concurrency.md).
  [[nodiscard]] Outcome budget_outcome() const;

  /// Interrupt state of one minimize() call, shared by every solve the
  /// search runs: the budget deadline, the in-solve poll countdown, the
  /// bound a poll aborted on, and the trace-milestone cursors.
  struct Checkpoints {
    std::chrono::steady_clock::time_point deadline;
    /// Sampled once, so the disabled path costs nothing per conflict.
    bool tracing = false;
    std::uint64_t seen_restarts = 0;
    std::uint64_t seen_deleted = 0;
    int countdown = kPollConflictInterval;
    long long pending = kNoBound;
  };
  /// One solve under the checkpoint interrupt. Returns nullopt when a
  /// strictly tighter published bound aborted the solve; that bound is then
  /// enforced and the caller re-solves.
  std::optional<sat::SolveResult> solve_checked(Checkpoints& cp,
                                                const std::vector<sat::Lit>& assumptions = {});
  /// The first solve under everything enforced so far: Unsat, Unknown (via
  /// budget_outcome), or the model snapshotted and reported Feasible at its
  /// cost (Optimal at cost 0).
  Outcome first_model(Checkpoints& cp);
  /// The binary search itself, starting from first_model().
  Outcome bisect(Checkpoints& cp);
  /// Runs `body` (first_model or bisect) with the preprocessing, tracing
  /// and metrics minimize() and find_model() share.
  Outcome run(const char* span_name, std::chrono::milliseconds budget,
              Outcome (CdclEngine::*body)(Checkpoints&));

  /// Engine-level state captured by mark_prefix (the sat::Solver itself is
  /// copyable by design — contiguous arena + plain vectors).
  struct PrefixSnapshot {
    sat::Solver solver;
    std::vector<std::pair<int, long long>> cost_terms;
    std::map<long long, sat::Lit> ge;
    long long clamp = -1;
    std::optional<long long> upper_bound;
    long long enforced = kNoBound;
    long long external_limit = kNoBound;
  };

  sat::Solver solver_;
  std::optional<long long> upper_bound_;
  /// Tightest bound ever passed to add_cost_bound (model costs and external
  /// bounds alike); a polled value prunes only if below this.
  long long enforced_ = kNoBound;
  /// Tightest *external* bound observed (set_upper_bound or any poll). A
  /// model costlier than this is reported as bounded-Unsat, never Optimal,
  /// so the outcome matches "the bound had been set before minimize()".
  long long external_limit_ = kNoBound;
  std::vector<std::pair<int, long long>> cost_terms_;  // (var, weight)
  // Generalized-totalizer root: ge_[w] ↔ "objective >= w" for attainable w,
  // clamped at clamp_. Built lazily by the first add_cost_bound call.
  std::map<long long, sat::Lit> ge_;
  long long clamp_ = -1;
  std::vector<bool> best_model_;
  bool has_model_ = false;
  std::optional<PrefixSnapshot> prefix_;
};

}  // namespace qxmap::reason
