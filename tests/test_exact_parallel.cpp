/// Determinism/concurrency harness for the parallel exact mapper: thread-
/// count invariance of the subset shard-and-reduce, the shared-bound early
/// termination, the zero-cost short-circuit, oversubscription (more threads
/// than subsets), the solve counter, and engine-cooperative
/// mid-solve bound tightening (docs/concurrency.md).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "arch/architectures.hpp"
#include "arch/subsets.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/exact_mapper.hpp"
#include "metric_delta.hpp"
#include "reason/cdcl_engine.hpp"

namespace qxmap {
namespace {

using exact::ExactOptions;
using exact::map_exact;
using exact::MappingResult;
using reason::EngineKind;
using reason::Status;
using testutil::CounterDelta;

ExactOptions subset_options(EngineKind kind, int num_threads) {
  ExactOptions opt;
  opt.engine = kind;
  opt.use_subsets = true;
  opt.num_threads = num_threads;
  opt.budget = std::chrono::milliseconds(30000);
  return opt;
}

/// Everything that must be bit-identical across thread counts.
void expect_identical(const MappingResult& a, const MappingResult& b, const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.cost_f, b.cost_f) << what;
  EXPECT_EQ(a.swaps_inserted, b.swaps_inserted) << what;
  EXPECT_EQ(a.cnots_reversed, b.cnots_reversed) << what;
  EXPECT_EQ(a.mapped.counts().single_qubit, b.mapped.counts().single_qubit) << what;
  EXPECT_EQ(a.initial_layout, b.initial_layout) << what;
  EXPECT_EQ(a.final_layout, b.final_layout) << what;
  EXPECT_EQ(a.instances_solved, b.instances_solved) << what;
  EXPECT_EQ(a.mapped, b.mapped) << what;
  EXPECT_EQ(a.routed_skeleton, b.routed_skeleton) << what;
}

class ExactParallelTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ExactParallelTest, ThreadCountInvarianceOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Circuit c = bench::random_circuit(3, 2, 6, seed, "par3");
    const auto serial = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 1));
    ASSERT_EQ(serial.status, Status::Optimal) << "seed " << seed;
    for (const int threads : {2, 8}) {
      const auto parallel = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), threads));
      expect_identical(serial, parallel,
                       "seed " + std::to_string(seed) + ", threads " + std::to_string(threads));
    }
  }
}

TEST_P(ExactParallelTest, HardwareConcurrencyDefaultMatchesSerial) {
  const Circuit c = bench::random_circuit(4, 3, 5, 7, "par4");
  const auto serial = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 1));
  const auto automatic = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 0));
  ASSERT_EQ(serial.status, Status::Optimal);
  expect_identical(serial, automatic, "num_threads = 0");
}

TEST_P(ExactParallelTest, OversubscriptionMoreThreadsThanSubsets) {
  // QX4 has exactly 4 connected 4-subsets; ask for 16 threads.
  const auto subsets = arch::connected_subsets(arch::ibm_qx4(), 4);
  ASSERT_EQ(subsets.size(), 4u);
  const Circuit c = bench::random_circuit(4, 2, 6, 11, "over");
  const auto serial = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 1));
  const auto oversubscribed = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 16));
  ASSERT_EQ(serial.status, Status::Optimal);
  expect_identical(serial, oversubscribed, "16 threads, 4 subsets");
}

TEST_P(ExactParallelTest, ZeroCostSolutionShortCircuitsLaterSubsets) {
  // A single CNOT always embeds on the first connected 2-subset with cost 0
  // (the initial mapping is free), so of QX4's six 2-subsets only the first
  // may be solved — later subsets can at best tie and lose the index
  // tie-break. (The six single edges are also one isomorphism class, so
  // the first is the only one submitted; InstanceCounter and
  // MidSolveTightening cover the skip of submitted tasks.)
  Circuit c(2, "zero");
  c.cnot(0, 1);
  ASSERT_EQ(arch::connected_subsets(arch::ibm_qx4(), 2).size(), 6u);
  for (const int threads : {1, 2, 8}) {
    const auto res = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), threads));
    ASSERT_EQ(res.status, Status::Optimal) << threads;
    EXPECT_EQ(res.cost_f, 0) << threads;
    EXPECT_EQ(res.instances_solved, 1) << threads;
    EXPECT_TRUE(res.verified) << res.verify_message;
  }
}

TEST_P(ExactParallelTest, NegativeThreadCountIsRejected) {
  Circuit c(2, "bad");
  c.cnot(0, 1);
  auto opt = subset_options(GetParam(), -1);
  EXPECT_THROW((void)map_exact(c, arch::ibm_qx4(), opt), std::invalid_argument);
}

TEST_P(ExactParallelTest, ParallelismAppliesOnlyWithMultipleInstances) {
  // Full-architecture mode has a single instance; any thread count must
  // behave exactly like the serial full solve.
  const Circuit c = bench::random_circuit(4, 2, 4, 3, "full");
  auto serial_opt = subset_options(GetParam(), 1);
  serial_opt.use_subsets = false;
  auto parallel_opt = subset_options(GetParam(), 8);
  parallel_opt.use_subsets = false;
  const auto serial = map_exact(c, arch::ibm_qx4(), serial_opt);
  const auto parallel = map_exact(c, arch::ibm_qx4(), parallel_opt);
  ASSERT_EQ(serial.status, Status::Optimal);
  EXPECT_EQ(serial.instances_solved, 1);
  expect_identical(serial, parallel, "single-instance mode");
}

TEST(InstanceCounter, CountsOnlySolvesThatRan) {
  // QX4's four connected 4-subsets form two classes, {0,1,2,3} and
  // {0,2,3,4}, so two tasks are submitted. The chain 1→0, 2→1, 3→2 embeds
  // at cost 0 on the first, so at one thread the zero-cost skip turns the
  // second pop into a no-op: one solve ran, and the counter says one.
  const auto cm = arch::ibm_qx4();
  Circuit c(4, "chain");
  c.cnot(1, 0);
  c.cnot(2, 1);
  c.cnot(3, 2);
  ASSERT_EQ(arch::subset_classes(cm, arch::connected_subsets(cm, 4)).solve.size(), 2u);
  for (const EngineKind kind : {EngineKind::Cdcl, EngineKind::Dp}) {
    const CounterDelta solved("qxmap_exact_instances_solved_total");
    const auto res = map_exact(c, cm, subset_options(kind, 1));
    ASSERT_EQ(res.status, Status::Optimal) << reason::to_string(kind);
    EXPECT_EQ(res.cost_f, 0) << reason::to_string(kind);
    EXPECT_EQ(res.instances_solved, 1) << reason::to_string(kind);
    EXPECT_EQ(solved(), static_cast<std::uint64_t>(res.instances_solved))
        << reason::to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ExactParallelTest,
                         ::testing::Values(EngineKind::Cdcl, EngineKind::Z3));

// The layout DP shares the executor fan-out and the reduction, so the same
// invariance holds with nothing shared between its instances.
INSTANTIATE_TEST_SUITE_P(DpEngine, ExactParallelTest, ::testing::Values(EngineKind::Dp));

// --- Shared-bound correctness at the engine level --------------------------
//
// The shards feed each other Eq. (5) upper bounds via
// ReasoningEngine::set_upper_bound; these tests pin down the contract the
// mapper relies on: a bound at or above the optimum never changes the
// reported optimum, and a bound below it comes back as (bounded) Unsat.

namespace bound {

/// Builds "pay 3 for a, 5 for b, at least one of a/b" — optimum 3 (a alone).
struct SmallObjective {
  reason::CdclEngine engine;
  int a;
  int b;
  SmallObjective() {
    a = engine.new_bool();
    b = engine.new_bool();
    engine.add_clause({a + 1, b + 1});
    engine.add_cost(a, 3);
    engine.add_cost(b, 5);
  }
};

}  // namespace bound

TEST(SharedBoundContract, BoundAboveOptimumKeepsOptimum) {
  bound::SmallObjective p;
  p.engine.set_upper_bound(7);
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
}

TEST(SharedBoundContract, BoundEqualToOptimumKeepsOptimum) {
  // The mapper publishes bounds inclusively: a tying instance must still
  // find its model so the deterministic index tie-break sees it.
  bound::SmallObjective p;
  p.engine.set_upper_bound(3);
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
}

TEST(SharedBoundContract, BoundBelowOptimumTerminatesAsBoundedUnsat) {
  bound::SmallObjective p;
  p.engine.set_upper_bound(2);
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Unsat);
}

TEST(SharedBoundContract, TighterOfFixedBoundAndSourceWins) {
  // A shard starts from a fixed bound and then polls its siblings'; the
  // outcome must be the one the tighter of the two alone would give.
  struct Case {
    long long fixed;
    long long polled;
    Status status;
  };
  for (const Case& k : {Case{7, 3, Status::Optimal}, Case{3, 7, Status::Optimal},
                        Case{7, 2, Status::Unsat}, Case{2, 7, Status::Unsat}}) {
    bound::SmallObjective p;
    p.engine.set_upper_bound(k.fixed);
    p.engine.set_bound_source([polled = k.polled] { return polled; });
    const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
    EXPECT_EQ(out.status, k.status) << "fixed " << k.fixed << " polled " << k.polled;
    if (k.status == Status::Optimal) {
      EXPECT_EQ(out.cost, 3) << "fixed " << k.fixed << " polled " << k.polled;
    }
  }
}

TEST(SharedBoundContract, NegativeBoundIsRejected) {
  bound::SmallObjective p;
  EXPECT_THROW(p.engine.set_upper_bound(-1), std::invalid_argument);
}

// --- Cooperative mid-solve tightening at the engine level -------------------
//
// set_bound_source installs a live view of the shared bound; the engine
// polls it between probes and inside solves, counts polls and tightenings
// in stats(), and reports outcomes exactly as if the tightest polled value
// had been passed to set_upper_bound up front.

TEST(CooperativeTightening, SourceAboveOptimumKeepsOptimum) {
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 7LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
  EXPECT_GE(p.engine.stats().bound_polls, 1);
  EXPECT_GE(p.engine.stats().bound_tightenings, 1);  // 7 < "no bound known"
}

TEST(CooperativeTightening, SourceEqualToOptimumKeepsOptimum) {
  // Published bounds are inclusive: a tying instance must still report its
  // model so the deterministic index tie-break sees it.
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 3LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
}

TEST(CooperativeTightening, SourceBelowOptimumTerminatesAsBoundedUnsat) {
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 2LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Unsat);
  EXPECT_GE(p.engine.stats().bound_tightenings, 1);
}

TEST(CooperativeTightening, SourceBelowFirstModelCostKeepsOptimum) {
  // The first model costs 5 (propagation alone lands it); a sibling bound
  // of 4 rules that model out but not the optimum 3 beneath it.
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 4LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
  EXPECT_GE(p.engine.stats().bound_tightenings, 1);
}

TEST(CooperativeTightening, NoBoundSentinelIsNeutral) {
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return reason::ReasoningEngine::kNoBound; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
  EXPECT_GE(p.engine.stats().bound_polls, 1);
  EXPECT_EQ(p.engine.stats().bound_tightenings, 0);
}

TEST(CooperativeTightening, MonotoneSourceSimulatingSiblingProgress) {
  // The source value drops as the engine works — exactly what a sibling
  // shard tightening its own instance produces. The engine must converge
  // on bounded-Unsat once the source falls below its optimum, whatever the
  // interleaving: outcomes depend only on the tightest value polled.
  bound::SmallObjective p;
  long long calls = 0;
  p.engine.set_bound_source([&calls] {
    ++calls;
    return calls == 1 ? 7LL : 2LL;  // first poll loose, then below optimum 3
  });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Unsat);
  EXPECT_GE(p.engine.stats().bound_tightenings, 2);  // kNoBound -> 7 -> 2
}

TEST(CooperativeTightening, PollsBetweenProbes) {
  // The unit-cost triple has optimum 1, so the search must probe bound 0
  // after its first model; it polls before every probe and once more
  // before concluding, and every call of the source is counted.
  reason::CdclEngine engine;
  const int a = engine.new_bool();
  const int b = engine.new_bool();
  const int c = engine.new_bool();
  engine.add_clause({a + 1, b + 1, c + 1});
  engine.add_cost(a, 1);
  engine.add_cost(b, 1);
  engine.add_cost(c, 1);
  long long calls = 0;
  engine.set_bound_source([&calls] {
    ++calls;
    return reason::ReasoningEngine::kNoBound;
  });
  const auto out = engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 1);
  EXPECT_GE(calls, 2);
  EXPECT_EQ(engine.stats().bound_polls, calls);
  EXPECT_EQ(engine.stats().bound_tightenings, 0);
}

// --- Binary search: probe statistics and deadline contract ------------------

TEST(BinarySearchProbeContract, ProbeConflictsLandInEngineStats) {
  // Regression: probes used to run on a throwaway solver whose statistics
  // were dropped, so the engine reported zero search work for runs that
  // were all probes. The unit-cost triple forces the probe at bound 0 into
  // a conflict on the shared solver, which must be visible afterwards.
  reason::CdclEngine engine;
  const int a = engine.new_bool();
  const int b = engine.new_bool();
  const int c = engine.new_bool();
  engine.add_clause({a + 1, b + 1, c + 1});
  engine.add_cost(a, 1);
  engine.add_cost(b, 1);
  engine.add_cost(c, 1);
  const auto out = engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 1);
  EXPECT_GE(engine.solver_stats().conflicts, 1u);
  EXPECT_GT(engine.solver_stats().lbd_sum, 0u);
}

TEST(BinarySearchProbeContract, DeadlineWithModelAboveExternalBoundIsUnknown) {
  // Regression (observed-vs-enforced contract): on deadline expiry the
  // binary search used to report Feasible(hi) even when hi exceeded the
  // tightest external bound it had polled. With a zero budget the first
  // solve still succeeds — it is propagation-only, and the deadline is
  // honoured at conflict boundaries — landing the cost-5 model; the
  // loop-start poll then observes the sibling bound 4, and the expired
  // deadline must yield Unknown, never Feasible(5).
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 4LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(0));
  EXPECT_EQ(out.status, Status::Unknown);
}

TEST(BinarySearchProbeContract, DeadlineWithModelWithinExternalBoundIsFeasible) {
  // Companion: the same expiry under a loose sibling bound keeps the model.
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 7LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(0));
  EXPECT_EQ(out.status, Status::Feasible);
  EXPECT_EQ(out.cost, 5);
}

TEST(BinarySearchProbeContract, ZeroBudgetWithoutBoundSourceIsFeasible) {
  // Without a sibling bound the expired deadline keeps the first model:
  // Feasible at its cost, with no poll made.
  bound::SmallObjective p;
  const auto out = p.engine.minimize(std::chrono::milliseconds(0));
  EXPECT_EQ(out.status, Status::Feasible);
  EXPECT_EQ(out.cost, 5);
  EXPECT_EQ(p.engine.stats().bound_polls, 0);
}

// --- Prefix snapshot / rollback on the engine --------------------------------

TEST(PrefixReuse, ResetRestoresTheMarkedFormula) {
  reason::CdclEngine engine;
  const int a = engine.new_bool();
  engine.add_clause({a + 1});
  ASSERT_TRUE(engine.mark_prefix());
  // Suffix 1 contradicts the prefix; the engine is now proven unsat.
  engine.add_clause({-(a + 1)});
  EXPECT_EQ(engine.minimize(std::chrono::milliseconds(5000)).status, Status::Unsat);
  // Roll back and build a different suffix on the same prefix: suffix
  // variables re-issue from the prefix boundary and the solve recovers.
  ASSERT_TRUE(engine.reset_to_prefix());
  const int b = engine.new_bool();
  EXPECT_EQ(b, 1);
  engine.add_clause({b + 1});
  engine.add_cost(b, 2);
  const auto out = engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 2);
}

TEST(PrefixReuse, ResetWithoutMarkIsRefused) {
  reason::CdclEngine engine;
  EXPECT_FALSE(engine.reset_to_prefix());
}

// --- Thread-count determinism on Table-1 instances --------------------------

TEST(CdclThreadDeterminism, Table1SmallRowsAreIdenticalAcrossThreadCounts) {
  // The binary search shares engines across a shard's instances (prefix
  // reuse) and its probes see whatever bound siblings have published; the
  // canonical re-solve must still make the full result bit-identical at
  // every thread count.
  for (const char* name : {"ex-1_166", "ham3_102"}) {
    const Circuit c = bench::table1_benchmark(name).build();
    const auto serial = map_exact(c, arch::ibm_qx4(), subset_options(EngineKind::Cdcl, 1));
    ASSERT_EQ(serial.status, Status::Optimal) << name;
    for (const int threads : {2, 8}) {
      const auto parallel =
          map_exact(c, arch::ibm_qx4(), subset_options(EngineKind::Cdcl, threads));
      expect_identical(serial, parallel,
                       std::string(name) + ", threads " + std::to_string(threads));
    }
  }
}

// --- Mid-solve tightening and the work-stealing order in the mapper ---------

namespace steal {

/// 6 physical qubits: a 2-qubit tail hanging off a 4-cycle (all couplings
/// bidirected). The five sparse connected 4-subsets (four paths and a star,
/// 3 edges each) need SWAPs for the cycle workload below and solve slowly;
/// the mapper solves the first path and the star. The 4-cycle subset
/// {2,3,4,5} hosts the workload at cost 0 and solves fast. It is the last
/// subset in index order, so with a worker per solve the sparse shards are
/// already solving when its cost-0 bound lands — the in-flight abort this
/// suite pins down.
arch::CouplingMap tail_cycle6() {
  std::vector<std::pair<int, int>> edges;
  const auto bidirected = [&edges](int a, int b) {
    edges.emplace_back(a, b);
    edges.emplace_back(b, a);
  };
  bidirected(0, 1);
  bidirected(1, 2);
  bidirected(2, 3);
  bidirected(3, 4);
  bidirected(4, 5);
  bidirected(5, 2);
  return arch::CouplingMap(6, edges, "tail-cycle6");
}

/// `reps` repetitions of the 4-cycle CNOT pattern (0,1)(1,2)(2,3)(3,0).
Circuit cycle_workload(int reps) {
  Circuit c(4, "cycle-workload");
  for (int r = 0; r < reps; ++r) {
    c.cnot(0, 1);
    c.cnot(1, 2);
    c.cnot(2, 3);
    c.cnot(3, 0);
  }
  return c;
}

}  // namespace steal

TEST(MidSolveTightening, CheapSubsetAbortsInFlightExpensiveShards) {
  const auto cm = steal::tail_cycle6();
  ASSERT_EQ(arch::connected_subsets(cm, 4).size(), 6u);
  const Circuit c = steal::cycle_workload(3);
  ExactOptions opt;
  opt.engine = EngineKind::Cdcl;
  opt.use_subsets = true;
  opt.num_threads = 6;  // every instance gets a worker up front
  opt.budget = std::chrono::milliseconds(120000);
  const CounterDelta polls("qxmap_engine_bound_polls_total");
  const CounterDelta tightenings("qxmap_engine_bound_tightenings_total");
  const auto res = map_exact(c, cm, opt);
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cost_f, 0);
  // The four 4-paths are one class, so one path, the star and the cycle
  // are solved (arch::subset_classes).
  EXPECT_EQ(res.instances_solved, 3);
  EXPECT_TRUE(res.verified) << res.verify_message;
  // Every sparse shard polls the shared bound between its probes and
  // inside its long solves, so polls are certain; the tightenings prove the cycle subset's cost-0 bound landed
  // *inside* sparse shards that were already solving (the serial schedule
  // only ever hands bounds over at solve start).
  EXPECT_GE(polls(), 6u);
  EXPECT_GE(tightenings(), 1u);
}

TEST(MidSolveTightening, SerialRunNeverTightensMidSolve) {
  // At one thread every bound is published before the next instance starts,
  // so polls see only bounds enforced at solve start, never one mid-solve;
  // the result must still be bit-identical to the parallel run.
  const auto cm = steal::tail_cycle6();
  const Circuit c = steal::cycle_workload(2);
  ExactOptions opt;
  opt.engine = EngineKind::Cdcl;
  opt.use_subsets = true;
  opt.num_threads = 1;
  opt.budget = std::chrono::milliseconds(120000);
  const CounterDelta polls("qxmap_engine_bound_polls_total");
  const CounterDelta tightenings("qxmap_engine_bound_tightenings_total");
  const auto serial = map_exact(c, cm, opt);
  ASSERT_EQ(serial.status, Status::Optimal);
  EXPECT_EQ(tightenings(), 0u);
  EXPECT_GE(polls(), 6u);
  opt.num_threads = 6;
  const auto parallel = map_exact(c, cm, opt);
  expect_identical(serial, parallel, "tail-cycle6, 1 vs 6 threads");
}

TEST(MidSolveTightening, ThreadCountDoesNotChangeResults) {
  // The interleaving of pops and mid-solve bounds changes wall time, never
  // results: 1, 2 and 6 threads must be bit-identical.
  const auto cm = steal::tail_cycle6();
  const Circuit c = steal::cycle_workload(2);
  ExactOptions base;
  base.engine = EngineKind::Cdcl;
  base.use_subsets = true;
  base.budget = std::chrono::milliseconds(120000);
  base.num_threads = 1;
  const auto reference = map_exact(c, cm, base);
  ASSERT_EQ(reference.status, Status::Optimal);
  for (const int threads : {2, 6}) {
    auto opt = base;
    opt.num_threads = threads;
    expect_identical(reference, map_exact(c, cm, opt), "threads=" + std::to_string(threads));
  }
}

// --- Work-stealing determinism sweep over the built-in architectures --------

TEST(WorkStealingSweep, DpThreadCountInvarianceOnAllBuiltInArchitectures) {
  // Wider circuits than the CDCL sweep below: the DP proves 5-qubit subset
  // instances on Tokyo in milliseconds.
  const std::vector<arch::CouplingMap> archs = {arch::ibm_qx2(), arch::ibm_qx4(), arch::ibm_qx5(),
                                                arch::ibm_tokyo()};
  for (const auto& cm : archs) {
    const Circuit c = bench::random_circuit(5, 3, 12, 23, "dp-sweep-" + cm.name());
    ExactOptions opt;
    opt.engine = EngineKind::Dp;
    opt.use_subsets = true;
    opt.budget = std::chrono::milliseconds(120000);
    opt.num_threads = 1;
    const auto serial = map_exact(c, cm, opt);
    ASSERT_EQ(serial.status, Status::Optimal) << cm.name();
    EXPECT_TRUE(serial.verified) << cm.name() << ": " << serial.verify_message;
    for (const int threads : {2, 8}) {
      auto popt = opt;
      popt.num_threads = threads;
      expect_identical(serial, map_exact(c, cm, popt),
                       cm.name() + ", threads " + std::to_string(threads));
    }
  }
}

TEST(WorkStealingSweep, ThreadCountInvarianceOnAllBuiltInArchitectures) {
  // qx2/qx4 exercise dense 5-qubit subset lists; qx5/tokyo exercise wide
  // subset lists (dozens of 3-subsets) where the steal order differs most
  // from index order.
  const std::vector<arch::CouplingMap> archs = {arch::ibm_qx2(), arch::ibm_qx4(), arch::ibm_qx5(),
                                                arch::ibm_tokyo()};
  for (const auto& cm : archs) {
    const Circuit c = bench::random_circuit(3, 2, 5, 17, "sweep-" + cm.name());
    ExactOptions opt;
    opt.engine = EngineKind::Cdcl;
    opt.use_subsets = true;
    opt.budget = std::chrono::milliseconds(120000);
    opt.num_threads = 1;
    const auto serial = map_exact(c, cm, opt);
    ASSERT_EQ(serial.status, Status::Optimal) << cm.name();
    EXPECT_TRUE(serial.verified) << cm.name() << ": " << serial.verify_message;
    for (const int threads : {2, 8}) {
      auto popt = opt;
      popt.num_threads = threads;
      const auto parallel = map_exact(c, cm, popt);
      expect_identical(serial, parallel, cm.name() + ", threads " + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace qxmap
