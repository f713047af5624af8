#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "arch/architectures.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "common/rng.hpp"
#include "exact/encoder.hpp"
#include "exact/exact_mapper.hpp"
#include "exact/strategies.hpp"
#include "metric_delta.hpp"
#include "reason/cdcl_engine.hpp"

namespace qxmap {
namespace {

using sat::Lit;
using sat::neg;
using sat::pos;
using sat::Solver;
using sat::SolveResult;

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
}

TEST(SatSolver, SingleUnit) {
  Solver s;
  const auto v = s.new_var();
  s.add_clause(pos(v));
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  EXPECT_TRUE(s.model_value(v));
}

TEST(SatSolver, ConflictingUnitsUnsat) {
  Solver s;
  const auto v = s.new_var();
  EXPECT_TRUE(s.add_clause(pos(v)));
  EXPECT_FALSE(s.add_clause(neg(v)));
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_TRUE(s.proven_unsat());
}

TEST(SatSolver, TautologyDropped) {
  Solver s;
  const auto v = s.new_var();
  EXPECT_TRUE(s.add_clause(std::vector<Lit>{pos(v), neg(v)}));
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
}

TEST(SatSolver, DuplicateLiteralsMerged) {
  Solver s;
  const auto v = s.new_var();
  s.add_clause(std::vector<Lit>{pos(v), pos(v), pos(v)});
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  EXPECT_TRUE(s.model_value(v));
}

TEST(SatSolver, ImplicationChainPropagates) {
  Solver s;
  std::vector<sat::Var> vars;
  for (int i = 0; i < 50; ++i) vars.push_back(s.new_var());
  for (int i = 0; i + 1 < 50; ++i) s.add_clause(neg(vars[static_cast<std::size_t>(i)]), pos(vars[static_cast<std::size_t>(i + 1)]));
  s.add_clause(pos(vars[0]));
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  for (const auto v : vars) EXPECT_TRUE(s.model_value(v));
}

TEST(SatSolver, XorChainUnsat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, x3 xor x1 = 1 is unsatisfiable (odd cycle).
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  const auto c = s.new_var();
  const auto add_xor_true = [&](sat::Var u, sat::Var v) {
    s.add_clause(pos(u), pos(v));
    s.add_clause(neg(u), neg(v));
  };
  add_xor_true(a, b);
  add_xor_true(b, c);
  add_xor_true(c, a);
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
}

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes — classic
/// resolution-hard UNSAT family that exercises clause learning.
/// Variables x[p][h] ("pigeon p sits in hole h") are created in row-major
/// order after any existing ones. A valid `guard` literal joins every
/// pigeon's "some hole" clause, so the formula is UNSAT only under ¬guard.
void build_php(Solver& s, int pigeons, int holes, Lit guard = Lit::from_index(-2)) {
  std::vector<std::vector<sat::Var>> x(static_cast<std::size_t>(pigeons));
  for (auto& row : x) {
    for (int h = 0; h < holes; ++h) row.push_back(s.new_var());
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    if (guard.index() >= 0) clause.push_back(guard);
    for (int h = 0; h < holes; ++h) clause.push_back(pos(x[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause(neg(x[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
                     neg(x[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]));
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    Solver s;
    build_php(s, holes + 1, holes);
    EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable) << "PHP(" << holes + 1 << "," << holes << ")";
  }
}

TEST(SatSolver, PigeonholeExactFitSat) {
  Solver s;
  build_php(s, 5, 5);
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
}

/// Brute-force satisfiability of a clause list over `n` vars.
bool brute_force_sat(int n, const std::vector<std::vector<Lit>>& clauses) {
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool all = true;
    for (const auto& cl : clauses) {
      bool any = false;
      for (const Lit l : cl) {
        const bool val = ((mask >> l.var()) & 1u) != 0;
        if (val != l.negative()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class RandomThreeSat : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomThreeSat, AgreesWithBruteForce) {
  Rng rng(GetParam());
  const int n = 12;
  // Near the phase transition (ratio ~4.3) both outcomes occur.
  const int num_clauses = 51;
  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      cl.push_back(Lit(static_cast<sat::Var>(rng.next_below(n)), rng.next_bool(0.5)));
    }
    clauses.push_back(std::move(cl));
  }
  Solver s;
  for (int i = 0; i < n; ++i) s.new_var();
  bool trivially_unsat = false;
  for (const auto& cl : clauses) {
    if (!s.add_clause(cl)) trivially_unsat = true;
  }
  const bool expected = brute_force_sat(n, clauses);
  if (trivially_unsat) {
    EXPECT_FALSE(expected);
    return;
  }
  const SolveResult r = s.solve();
  EXPECT_EQ(r == SolveResult::Satisfiable, expected);
  if (r == SolveResult::Satisfiable) {
    // The model must actually satisfy every clause.
    for (const auto& cl : clauses) {
      bool any = false;
      for (const Lit l : cl) {
        if (s.model_value(l)) any = true;
      }
      EXPECT_TRUE(any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomThreeSat,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                                           13u, 14u, 15u, 16u, 17u, 18u, 19u, 20u));

TEST(SatSolver, IncrementalStrengthening) {
  // Solve, then add clauses and solve again (the optimiser's usage pattern).
  Solver s;
  std::vector<sat::Var> v;
  for (int i = 0; i < 4; ++i) v.push_back(s.new_var());
  s.add_clause(std::vector<Lit>{pos(v[0]), pos(v[1]), pos(v[2]), pos(v[3])});
  int models = 0;
  while (s.solve() == SolveResult::Satisfiable) {
    ++models;
    ASSERT_LE(models, 20);
    // Block the found model.
    std::vector<Lit> block;
    for (const auto var : v) block.push_back(s.model_value(var) ? neg(var) : pos(var));
    s.add_clause(block);
  }
  EXPECT_EQ(models, 15);  // 2^4 - 1 assignments satisfy the initial clause
}

TEST(SatSolver, InterruptReturnsUnknown) {
  Solver s;
  build_php(s, 11, 10);  // hard enough not to finish instantly
  const auto r = s.solve([] { return true; });
  EXPECT_EQ(r, SolveResult::Unknown);
}

TEST(SatSolver, StatsAccumulate) {
  Solver s;
  build_php(s, 6, 5);
  s.solve();
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
}

TEST(SatSolver, UnknownVariableRejected) {
  Solver s;
  EXPECT_THROW(s.add_clause(pos(3)), std::out_of_range);
}

// -- ReduceDB invariants ------------------------------------------------------

/// Builds a learnt clause of `size` literals over distinct fresh-ish vars.
sat::CRef alloc_learnt(sat::ClauseArena& arena, int size, std::uint32_t lbd, float activity,
                       int first_var) {
  std::vector<Lit> lits;
  for (int i = 0; i < size; ++i) lits.push_back(pos(static_cast<sat::Var>(first_var + i)));
  const sat::CRef cr = arena.alloc(lits, /*learnt=*/true);
  arena.view(cr).set_lbd(lbd);
  arena.view(cr).set_activity(activity);
  return cr;
}

TEST(ReduceDb, PinsGlueBinaryAndLockedClauses) {
  sat::ClauseArena arena;
  std::vector<sat::CRef> learnts;
  const sat::CRef glue = alloc_learnt(arena, 5, sat::ReduceDb::kGlueLbd, 0.0f, 0);
  const sat::CRef binary = alloc_learnt(arena, 2, 9, 0.0f, 10);
  const sat::CRef locked_cr = alloc_learnt(arena, 5, 9, 0.0f, 20);
  // Four candidates with distinct LBDs; the worst half (two highest) go.
  const sat::CRef c3 = alloc_learnt(arena, 5, 3, 0.0f, 30);
  const sat::CRef c4 = alloc_learnt(arena, 5, 4, 0.0f, 40);
  const sat::CRef c8 = alloc_learnt(arena, 5, 8, 0.0f, 50);
  const sat::CRef c9 = alloc_learnt(arena, 5, 9, 0.0f, 60);
  learnts = {glue, binary, locked_cr, c3, c4, c8, c9};

  sat::ReduceDb db;
  const std::size_t deleted =
      db.reduce(arena, learnts, [&](sat::CRef cr) { return cr == locked_cr; });

  EXPECT_EQ(deleted, 2u);
  EXPECT_FALSE(arena.view(glue).deleted());
  EXPECT_FALSE(arena.view(binary).deleted());
  EXPECT_FALSE(arena.view(locked_cr).deleted());
  EXPECT_FALSE(arena.view(c3).deleted());
  EXPECT_FALSE(arena.view(c4).deleted());
  EXPECT_TRUE(arena.view(c8).deleted());
  EXPECT_TRUE(arena.view(c9).deleted());
  // The learnts list was compacted to exactly the survivors.
  EXPECT_EQ(learnts.size(), 5u);
  for (const sat::CRef cr : learnts) EXPECT_FALSE(arena.view(cr).deleted());
}

TEST(ReduceDb, RanksByLbdThenActivityDeterministically) {
  sat::ClauseArena arena;
  // Equal LBD: the lower-activity clause is deleted first.
  const sat::CRef cold = alloc_learnt(arena, 5, 6, 0.1f, 0);
  const sat::CRef hot = alloc_learnt(arena, 5, 6, 5.0f, 10);
  std::vector<sat::CRef> learnts = {cold, hot};
  sat::ReduceDb db;
  EXPECT_EQ(db.reduce(arena, learnts, [](sat::CRef) { return false; }), 1u);
  EXPECT_TRUE(arena.view(cold).deleted());
  EXPECT_FALSE(arena.view(hot).deleted());
}

TEST(ReduceDb, ScheduleGrowsLinearly) {
  sat::ReduceDb db;
  EXPECT_FALSE(db.due(sat::ReduceDb::kFirstReduceConflicts - 1));
  EXPECT_TRUE(db.due(sat::ReduceDb::kFirstReduceConflicts));

  sat::ClauseArena arena;
  std::vector<sat::CRef> learnts;
  (void)db.reduce(arena, learnts, [](sat::CRef) { return false; });
  EXPECT_EQ(db.reductions(), 1u);
  // Next due point: 2*first + 1*increment (linearly growing interval).
  const std::uint64_t next =
      2 * sat::ReduceDb::kFirstReduceConflicts + sat::ReduceDb::kReduceIncrement;
  EXPECT_FALSE(db.due(next - 1));
  EXPECT_TRUE(db.due(next));
}

TEST(SatSolver, ReduceDbFiresOnHardInstanceAndStaysCorrect) {
  // PHP(8,7) needs well over kFirstReduceConflicts conflicts, so ReduceDB
  // runs at least once mid-proof; the answer must still be UNSAT and the
  // kept/deleted accounting must be populated.
  Solver s;
  build_php(s, 8, 7);
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_GT(s.stats().conflicts, sat::ReduceDb::kFirstReduceConflicts);
  EXPECT_GT(s.stats().learnt_deleted, 0u);
  EXPECT_GT(s.stats().learnt_kept, 0u);
}

// --- Golden work counters --------------------------------------------------
//
// The search is deterministic, so its work counters are a fingerprint of
// every decision the solver makes: propagation order, first-UIP analysis,
// clause minimisation, LBD, restarts and ReduceDB. A change that only makes
// the solver faster must leave these numbers exactly as they are; a change
// that moves them changed the search and must say so.

void expect_counters(const sat::SolverStats& got, const sat::SolverStats& want) {
  EXPECT_EQ(got.conflicts, want.conflicts);
  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.propagations, want.propagations);
  EXPECT_EQ(got.learned, want.learned);
  EXPECT_EQ(got.lbd_sum, want.lbd_sum);
  EXPECT_EQ(got.restarts, want.restarts);
  EXPECT_EQ(got.learnt_deleted, want.learnt_deleted);
}

TEST(SatSolver, SearchCountersArePinned) {
  Solver s;
  build_php(s, 8, 7);
  ASSERT_EQ(s.solve(), SolveResult::Unsatisfiable);
  sat::SolverStats want;
  want.conflicts = 5636;
  want.decisions = 6832;
  want.propagations = 99673;
  want.learned = 5635;
  want.lbd_sum = 53126;
  want.restarts = 16;
  want.learnt_deleted = 2575;
  expect_counters(s.stats(), want);
}

TEST(SatSolver, Table1RowSearchCountersArePinned) {
  // One Table-1 row end to end through the CDCL engine: the Sec. 3
  // encoding of 4gt11_82 on QX4 under the All strategy, minimised by the
  // assumption-probe binary search to a proven optimum.
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  const Circuit circuit = bench::table1_benchmark("4gt11_82").build();
  std::vector<Gate> cnots;
  for (const auto& g : circuit) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  const auto points = exact::permutation_points(cnots, exact::PermutationStrategy::All, cm);
  reason::CdclEngine engine;
  const exact::Encoding enc(engine, cnots, circuit.num_qubits(), cm, table, points,
                            exact::CostModel{}.resolved(cm));
  const auto out = engine.minimize(std::chrono::milliseconds(600000));
  ASSERT_EQ(out.status, reason::Status::Optimal);
  EXPECT_EQ(out.cost, 33);
  sat::SolverStats want;
  want.conflicts = 3754;
  want.decisions = 18400;
  want.propagations = 1540233;
  want.learned = 3754;
  want.lbd_sum = 46471;
  want.restarts = 23;
  want.learnt_deleted = 753;
  expect_counters(engine.solver_stats(), want);
}

TEST(SatSolver, Table1MultiSubsetScheduleIsPinned) {
  // One multi-subset Table-1 row through map_exact at one thread: of
  // 3_17_13's six QX4 3-subsets only the transitive triangle {0,1,2} can
  // win (the five 2-edge paths embed into it), so it is the one solve, and
  // a single solve needs no canonical re-solve. The conflicts fingerprint
  // that schedule as well as the search.
  const Circuit circuit = bench::table1_benchmark("3_17_13").build();
  exact::ExactOptions opt;
  opt.engine = reason::EngineKind::Cdcl;
  opt.use_subsets = true;
  opt.num_threads = 1;
  opt.budget = std::chrono::milliseconds(600000);
  const testutil::CounterDelta conflicts("qxmap_cdcl_conflicts_total");
  const auto res = exact::map_exact(circuit, arch::ibm_qx4(), opt);
  ASSERT_EQ(res.status, reason::Status::Optimal);
  EXPECT_EQ(res.cost_f, 7);
  EXPECT_EQ(conflicts(), 42u);
  EXPECT_EQ(res.initial_layout, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(res.final_layout, (std::vector<int>{1, 0, 2}));
}

TEST(SatSolver, GlucoseRestartsFireOnlyOnAFullLbdWindow) {
  // The Glucose rule compares the average LBD of the last 50 learnt
  // clauses with the long-run average and empties that window on every
  // restart, so PHP(8,7) must restart, but never twice within 50 conflicts.
  constexpr std::uint64_t kRecentLbdWindow = 50;
  Solver s;
  build_php(s, 8, 7);
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_GT(s.stats().restarts, 0u);
  EXPECT_LE(s.stats().restarts * kRecentLbdWindow, s.stats().conflicts);
}

TEST(SatSolver, LearntsSurviveIncrementalStrengthening) {
  // The optimiser's pattern: solve, add a tightening clause, solve again.
  // Learnt state (and the ReduceDB schedule) persists across calls without
  // corrupting correctness in either direction.
  Solver s;
  build_php(s, 7, 7);  // exact fit: SAT
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  // Forbid the hole pigeon 0 occupies; still SAT (6 remaining... 7 pigeons,
  // 7 holes minus the blocked assignment only removes one placement).
  for (int h = 0; h < 7; ++h) {
    if (s.model_value(static_cast<sat::Var>(h))) {
      s.add_clause(neg(static_cast<sat::Var>(h)));
      break;
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  const std::uint64_t conflicts_before = s.stats().conflicts;
  // Now forbid every hole for pigeon 0: UNSAT.
  for (int h = 0; h < 7; ++h) s.add_clause(neg(static_cast<sat::Var>(h)));
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_GE(s.stats().conflicts, conflicts_before);
}

// --- Assumptions (incremental probes) ----------------------------------------
//
// solve(interrupt, assumptions) decides the formula under extra unit premises
// without touching the clause database; on Unsatisfiable, failed_assumptions()
// is the subset of premises the refutation actually used (empty exactly when
// the formula is unsatisfiable on its own). The optimiser's binary search
// leans on every property pinned down here.

TEST(SatSolver, AssumptionsSelectTheModelWithoutCommitting) {
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_clause(pos(a), pos(b));
  EXPECT_EQ(s.solve(nullptr, {neg(a)}), SolveResult::Satisfiable);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  // The opposite probe on the same solver: nothing was committed.
  EXPECT_EQ(s.solve(nullptr, {neg(b)}), SolveResult::Satisfiable);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_FALSE(s.model_value(b));
}

TEST(SatSolver, FailedAssumptionsPinpointTheRefutedSubset) {
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  const auto c = s.new_var();
  s.add_clause(neg(a), neg(b));
  EXPECT_EQ(s.solve(nullptr, {pos(a), pos(b), pos(c)}), SolveResult::Unsatisfiable);
  EXPECT_FALSE(s.proven_unsat());  // unsat only *under* the assumptions
  const auto& failed = s.failed_assumptions();
  const auto holds = [&failed](Lit l) {
    return std::find(failed.begin(), failed.end(), l) != failed.end();
  };
  EXPECT_TRUE(holds(pos(a)));
  EXPECT_TRUE(holds(pos(b)));
  EXPECT_FALSE(holds(pos(c)));  // c played no part in the refutation
  // Without the assumptions the formula is satisfiable again.
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
}

TEST(SatSolver, ContradictoryAssumptionsFailAgainstEachOther) {
  Solver s;
  const auto v = s.new_var();
  EXPECT_EQ(s.solve(nullptr, {pos(v), neg(v)}), SolveResult::Unsatisfiable);
  EXPECT_FALSE(s.proven_unsat());
  EXPECT_EQ(s.failed_assumptions().size(), 2u);
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
}

TEST(SatSolver, GloballyUnsatFormulaYieldsEmptyFailedSet) {
  Solver s;
  const auto v = s.new_var();
  const auto w = s.new_var();
  EXPECT_TRUE(s.add_clause(pos(v)));
  EXPECT_FALSE(s.add_clause(neg(v)));
  EXPECT_EQ(s.solve(nullptr, {pos(w)}), SolveResult::Unsatisfiable);
  EXPECT_TRUE(s.proven_unsat());
  EXPECT_TRUE(s.failed_assumptions().empty());
}

TEST(SatSolver, AssumptionsAlreadyForcedAtLevelZeroStayAligned) {
  // A level-0-true assumption contributes an empty decision level so later
  // assumptions keep their index alignment across backjumps.
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  const auto c = s.new_var();
  s.add_clause(pos(a));  // level-0 unit: the first assumption is already true
  EXPECT_EQ(s.solve(nullptr, {pos(a), pos(b), neg(c)}), SolveResult::Satisfiable);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_FALSE(s.model_value(c));
}

TEST(SatSolver, ConflictUnderAssumptionLearnsOnlyPermanentFacts) {
  // F = (u∨v)(u∨w)(¬v∨¬w) entails u. Probing ¬u must fail with ¬u as the
  // sole culprit, and anything learnt along the way must be a consequence of
  // F alone: the opposite probe and the unassumed solve both succeed with u
  // true, without re-deriving the conflict (the learnt fact survived).
  Solver s;
  const auto u = s.new_var();
  const auto v = s.new_var();
  const auto w = s.new_var();
  s.add_clause(pos(u), pos(v));
  s.add_clause(pos(u), pos(w));
  s.add_clause(neg(v), neg(w));
  EXPECT_EQ(s.solve(nullptr, {neg(u)}), SolveResult::Unsatisfiable);
  ASSERT_EQ(s.failed_assumptions().size(), 1u);
  EXPECT_EQ(s.failed_assumptions().front(), neg(u));
  EXPECT_GE(s.stats().conflicts, 1u);
  const auto conflicts_after_probe = s.stats().conflicts;
  EXPECT_EQ(s.solve(nullptr, {pos(u)}), SolveResult::Satisfiable);
  EXPECT_EQ(s.stats().conflicts, conflicts_after_probe);
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  EXPECT_TRUE(s.model_value(u));
}

TEST(SatSolver, AssumptionProbesAfterAHardSearchMatchAFreshSolver) {
  // Clause minimisation marks variables in the per-variable scratch that
  // analyze_final() later reads to collect failed assumptions; a mark left
  // behind would drag unrelated assumptions into the failed set. After a
  // refutation of about a thousand conflicts, every probe must answer
  // exactly as a fresh solver holding the same clauses does.
  constexpr int kPigeons = 7;
  constexpr int kHoles = 6;
  constexpr int kExtra = 6;
  const sat::Var act = 0;  // ¬act switches PHP(7,6) on
  const auto x = [](int p, int h) { return static_cast<sat::Var>(1 + p * kHoles + h); };
  const auto e = [](int i) { return static_cast<sat::Var>(1 + kPigeons * kHoles + i); };
  const auto build = [&](Solver& s) {
    (void)s.new_var();  // act
    build_php(s, kPigeons, kHoles, pos(act));
    for (int i = 0; i < kExtra; ++i) (void)s.new_var();
    // A side formula over the extra vars: e0 -> e1 -> e2, e3 -> ¬e2, e4 ∨ e5.
    s.add_clause(neg(e(0)), pos(e(1)));
    s.add_clause(neg(e(1)), pos(e(2)));
    s.add_clause(neg(e(3)), neg(e(2)));
    s.add_clause(pos(e(4)), pos(e(5)));
  };

  Solver searched;
  build(searched);
  ASSERT_EQ(searched.solve(nullptr, {neg(act)}), SolveResult::Unsatisfiable);
  ASSERT_GT(searched.stats().conflicts, 500u);
  ASSERT_FALSE(searched.proven_unsat());

  const std::vector<std::vector<Lit>> probes{
      {pos(e(0)), pos(x(0, 0)), pos(x(1, 1)), pos(e(3))},
      {pos(x(0, 0)), pos(e(3)), pos(e(0))},
      {pos(x(2, 3)), neg(e(4)), neg(e(5))},
      {pos(x(0, 0)), pos(x(1, 1)), pos(e(0))},
      {pos(act), pos(e(1)), neg(e(2))},
      {neg(act)},
  };
  for (std::size_t i = 0; i < probes.size(); ++i) {
    Solver fresh;
    build(fresh);
    const SolveResult want = fresh.solve(nullptr, probes[i]);
    EXPECT_EQ(searched.solve(nullptr, probes[i]), want) << "probe " << i;
    EXPECT_EQ(searched.failed_assumptions(), fresh.failed_assumptions()) << "probe " << i;
  }
}

TEST(SatSolver, InterruptDuringAssumptionProbeReturnsUnknown) {
  // The conflict-boundary interrupt contract holds under assumptions too.
  Solver s;
  const auto u = s.new_var();
  const auto v = s.new_var();
  const auto w = s.new_var();
  s.add_clause(pos(u), pos(v));
  s.add_clause(pos(u), pos(w));
  s.add_clause(neg(v), neg(w));
  EXPECT_EQ(s.solve([] { return true; }, {neg(u)}), SolveResult::Unknown);
}

TEST(SatSolver, UnknownAssumptionVariableIsRejected) {
  Solver s;
  (void)s.new_var();
  EXPECT_THROW((void)s.solve(nullptr, {pos(static_cast<sat::Var>(5))}), std::out_of_range);
}

}  // namespace
}  // namespace qxmap
