#include "exact/exact_mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>

#include "arch/architectures.hpp"
#include "arch/subsets.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/reference_search.hpp"
#include "exact/router.hpp"
#include "exact/strategies.hpp"
#include "exact/swap_synthesis.hpp"

namespace qxmap {
namespace {

using exact::ExactOptions;
using exact::map_exact;
using exact::MappingResult;
using exact::PermutationStrategy;
using reason::EngineKind;
using reason::Status;

ExactOptions fast_options(EngineKind kind) {
  ExactOptions opt;
  opt.engine = kind;
  opt.budget = std::chrono::milliseconds(30000);
  return opt;
}

/// Independently certified minimum F for a circuit on QX4 (unrestricted).
long long certified_minimum(const Circuit& c) {
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  std::vector<std::size_t> pts;
  for (std::size_t k = 1; k < cnots.size(); ++k) pts.push_back(k);
  const auto cm = arch::ibm_qx4();
  exact::CostModel costs;
  costs.swap_cost = 7;
  const auto r = exact::minimal_cost_reference(cnots, c.num_qubits(), cm, pts, costs);
  EXPECT_TRUE(r.feasible);
  return r.cost_f;
}

class ExactMapperTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ExactMapperTest, PaperExampleHasMinimalCost4) {
  const Circuit c = bench::paper_example_circuit();
  const auto res = map_exact(c, arch::ibm_qx4(), fast_options(GetParam()));
  EXPECT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cost_f, 4);
  EXPECT_EQ(res.mapped.size(), c.size() + 4);
  EXPECT_EQ(res.swaps_inserted, 0);
  EXPECT_EQ(res.cnots_reversed, 1);
  EXPECT_TRUE(res.verified) << res.verify_message;
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4()));
}

TEST_P(ExactMapperTest, MatchesReferenceOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Circuit c = bench::random_circuit(4, 3, 6, seed, "rnd");
    const auto res = map_exact(c, arch::ibm_qx4(), fast_options(GetParam()));
    ASSERT_EQ(res.status, Status::Optimal) << "seed " << seed;
    EXPECT_EQ(res.cost_f, certified_minimum(c)) << "seed " << seed;
    EXPECT_TRUE(res.verified) << res.verify_message;
  }
}

TEST_P(ExactMapperTest, SubsetModePreservesMinimalityOnSmallCases) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Circuit c = bench::random_circuit(3, 2, 6, seed, "rnd3");
    auto opt = fast_options(GetParam());
    opt.use_subsets = true;
    const auto res = map_exact(c, arch::ibm_qx4(), opt);
    ASSERT_EQ(res.status, Status::Optimal);
    // Sec. 4.1: still minimal on all evaluated cases.
    EXPECT_EQ(res.cost_f, certified_minimum(c)) << "seed " << seed;
    // Of QX4's six 3-subsets only the triangle {0,1,2} can win: the five
    // 2-edge paths embed into it (arch::subset_classes).
    EXPECT_EQ(res.instances_solved, 1);
    EXPECT_TRUE(res.verified) << res.verify_message;
  }
}

TEST_P(ExactMapperTest, StrategiesAreNeverBelowTheMinimum) {
  const Circuit c = bench::random_circuit(4, 4, 7, 99, "strat");
  const long long minimum = certified_minimum(c);
  for (const auto strategy :
       {PermutationStrategy::DisjointQubits, PermutationStrategy::OddGates,
        PermutationStrategy::QubitTriangle}) {
    auto opt = fast_options(GetParam());
    opt.strategy = strategy;
    const auto res = map_exact(c, arch::ibm_qx4(), opt);
    if (res.status == Status::Unsat) continue;  // over-restricted is allowed
    ASSERT_EQ(res.status, Status::Optimal) << exact::to_string(strategy);
    EXPECT_GE(res.cost_f, minimum) << exact::to_string(strategy);
    EXPECT_TRUE(res.verified) << res.verify_message;
  }
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ExactMapperTest,
                         ::testing::Values(EngineKind::Z3, EngineKind::Cdcl));

INSTANTIATE_TEST_SUITE_P(DpEngine, ExactMapperTest, ::testing::Values(EngineKind::Dp));

TEST(ExactMapper, SingleQubitGatesAreReattached) {
  Circuit c(2, "oneq");
  c.h(0);
  c.t(1);
  c.cnot(0, 1);
  c.h(1);
  const auto res = map_exact(c, arch::ibm_qx4(), fast_options(EngineKind::Z3));
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.mapped.counts().single_qubit,
            c.counts().single_qubit + 4 * res.cnots_reversed);
  EXPECT_TRUE(res.verified) << res.verify_message;
}

TEST(ExactMapper, CircuitWithoutCnots) {
  Circuit c(3, "no-cnot");
  c.h(0);
  c.t(2);
  const auto res = map_exact(c, arch::ibm_qx4(), fast_options(EngineKind::Z3));
  EXPECT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cost_f, 0);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.permutation_points, 1);
}

TEST(ExactMapper, CircuitWithoutCnotsReportsLikeAnyOtherResult) {
  // The CNOT-free shortcut names the engine that would have run and
  // measures its wall time, like every routed result.
  Circuit no_cnot(3, "no-cnot");
  no_cnot.h(0);
  no_cnot.t(2);
  Circuit with_cnot(3, "cnot");
  with_cnot.h(0);
  with_cnot.cnot(0, 1);
  for (const EngineKind kind : {EngineKind::Z3, EngineKind::Cdcl, EngineKind::Dp}) {
    const auto trivial = map_exact(no_cnot, arch::ibm_qx4(), fast_options(kind));
    const auto routed = map_exact(with_cnot, arch::ibm_qx4(), fast_options(kind));
    EXPECT_FALSE(trivial.engine_name.empty());
    EXPECT_EQ(trivial.engine_name, routed.engine_name);
    EXPECT_GT(trivial.seconds, 0.0);
  }
}

// QX4 is within deep_verify_max_qubits, so every emitted result carries the
// statevector check after the GF(2) one; its message on success is the one
// sim::check_mapped_circuit gives for an equivalent circuit.
constexpr const char* kStatevectorOk = "equivalent on the embedded subspace";

TEST(ExactMapper, CircuitWithoutCnotsGetsTheStatevectorCheck) {
  Circuit c(3, "no-cnot");
  c.h(0);
  c.h(1);
  c.h(2);
  for (const EngineKind kind : {EngineKind::Cdcl, EngineKind::Dp}) {
    const auto res = map_exact(c, arch::ibm_qx4(), fast_options(kind));
    EXPECT_TRUE(res.verified) << res.verify_message;
    EXPECT_NE(res.verify_message.find(kStatevectorOk), std::string::npos) << res.verify_message;
  }
}

TEST(ExactMapper, WarmStartFallbackGetsTheStatevectorCheck) {
  // 1 ms leaves the CDCL engine no time to find a model of qe_q_5 (69 CNOTs)
  // under the warm-start bound, so the greedy route itself is emitted.
  auto opt = fast_options(EngineKind::Cdcl);
  opt.budget = std::chrono::milliseconds(1);
  const auto res = map_exact(bench::table1_benchmark("qe_q_5").build(), arch::ibm_qx4(), opt);
  ASSERT_NE(res.verify_message.find("warm-start fallback"), std::string::npos)
      << res.verify_message;
  EXPECT_EQ(res.status, Status::Feasible);
  EXPECT_TRUE(res.verified) << res.verify_message;
  EXPECT_NE(res.verify_message.find(kStatevectorOk), std::string::npos) << res.verify_message;
}

TEST(ExactMapper, NoWarmStartForALoneProperSubset) {
  // Qubit 0 is isolated, so {1,2,3} is the one connected 3-subset. The
  // greedy warm start walks from the identity layout on the whole map,
  // where logical 0 sits on the isolated qubit and no path exists; the SAT
  // engines must solve the subset like the Dp engine does instead.
  const arch::CouplingMap cm(4, {{1, 2}, {2, 3}}, "isolated-0");
  Circuit c(3, "triangle");
  c.cnot(0, 1);
  c.cnot(1, 2);
  c.cnot(0, 2);
  c.cnot(2, 0);
  for (const EngineKind kind : {EngineKind::Cdcl, EngineKind::Dp}) {
    auto opt = fast_options(kind);
    opt.use_subsets = true;
    const auto res = map_exact(c, cm, opt);
    ASSERT_EQ(res.status, Status::Optimal) << reason::to_string(kind);
    EXPECT_EQ(res.cost_f, 11) << reason::to_string(kind);
    EXPECT_TRUE(res.verified) << res.verify_message;
  }
}

TEST(ExactMapper, MeasureAndBarrierSurvive) {
  Circuit c(2, "meas");
  c.h(0);
  c.append(Gate::barrier());
  c.cnot(0, 1);
  c.append(Gate::measure(0));
  c.append(Gate::measure(1));
  const auto res = map_exact(c, arch::ibm_qx4(), fast_options(EngineKind::Z3));
  ASSERT_EQ(res.status, Status::Optimal);
  int measures = 0;
  int barriers = 0;
  for (const auto& g : res.mapped) {
    measures += g.kind == OpKind::Measure;
    barriers += g.kind == OpKind::Barrier;
  }
  EXPECT_EQ(measures, 2);
  EXPECT_EQ(barriers, 1);
}

TEST(ExactMapper, SwapsAppearWhenForced) {
  // 3 CNOT pairs that cannot coexist on a line: expect >= 1 SWAP.
  Circuit c(3, "line-conflict");
  c.cnot(0, 1);
  c.cnot(0, 2);
  c.cnot(1, 2);
  const auto res = map_exact(c, arch::linear(3), fast_options(EngineKind::Z3));
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_GE(res.swaps_inserted, 1);
  EXPECT_TRUE(res.verified) << res.verify_message;
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::linear(3)));
}

TEST(ExactMapper, ReportsPermutationPointCount) {
  const Circuit c = bench::paper_example_circuit();
  auto opt = fast_options(EngineKind::Z3);
  opt.strategy = PermutationStrategy::QubitTriangle;
  const auto res = map_exact(c, arch::ibm_qx4(), opt);
  // Example 10: G' = {g2}, plus the free initial mapping -> 2.
  EXPECT_EQ(res.permutation_points, 2);
}

TEST(ExactMapper, ValidationErrors) {
  Circuit too_big(6);
  too_big.cnot(0, 5);
  EXPECT_THROW(map_exact(too_big, arch::ibm_qx4(), {}), std::invalid_argument);

  // Raw swap pseudo-gates are no longer rejected: the mapper decomposes
  // them up front and routes the elementary form.
  Circuit with_swap(2);
  with_swap.swap(0, 1);
  const auto swap_res = map_exact(with_swap, arch::ibm_qx4(), {});
  EXPECT_EQ(swap_res.status, reason::Status::Optimal);
  EXPECT_EQ(swap_res.mapped.counts().swap, 0);
  EXPECT_TRUE(exact::satisfies_coupling(swap_res.mapped, arch::ibm_qx4()));

  // Full-architecture mode on a big machine requires subsets.
  Circuit small(2);
  small.cnot(0, 1);
  ExactOptions opt;
  EXPECT_THROW(map_exact(small, arch::ibm_qx5(), opt), std::invalid_argument);
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(60000);
  const auto res = map_exact(small, arch::ibm_qx5(), opt);
  EXPECT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cost_f, 0);
}

TEST(ExactMapper, BidirectedArchitectureUsesCheapSwaps) {
  // On Tokyo (bidirected) a SWAP costs 3 and no reversal is ever needed.
  Circuit c(3, "tokyo");
  c.cnot(0, 1);
  c.cnot(1, 2);
  c.cnot(0, 2);
  ExactOptions opt = fast_options(EngineKind::Z3);
  opt.use_subsets = true;
  const auto res = map_exact(c, arch::ibm_tokyo(), opt);
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cnots_reversed, 0);
  EXPECT_EQ(res.cost_f, 0);  // a triangle exists on Tokyo
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_tokyo()));
}

// --- The class reduction against the full Sec. 4.1 sweep -------------------

/// Solves every connected n-subset with search_layouts and keeps the lowest
/// (cost, index): the sweep map_exact ran before it solved one subset per
/// undominated isomorphism class. `winner` is empty when no subset has a
/// route.
struct FullSweep {
  std::vector<std::vector<int>> subsets;
  std::optional<std::size_t> winner;
  exact::LayoutRoute route;
};

FullSweep full_sweep(const Circuit& c, const arch::CouplingMap& cm,
                     const exact::CostModel& costs, PermutationStrategy strategy) {
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  const auto points = exact::permutation_points(cnots, strategy, cm);
  FullSweep sweep;
  sweep.subsets = arch::connected_subsets(cm, c.num_qubits());
  for (std::size_t i = 0; i < sweep.subsets.size(); ++i) {
    exact::LayoutRoute route = exact::search_layouts(cnots, c.num_qubits(),
                                                     cm.induced(sweep.subsets[i]), points, costs);
    if (route.status != Status::Optimal) continue;
    if (!sweep.winner || route.cost < sweep.route.cost) {
      sweep.winner = i;
      sweep.route = std::move(route);
    }
  }
  return sweep;
}

/// The sweep winner's route replayed on the whole architecture.
MappingResult lift_winner(const Circuit& c, const arch::CouplingMap& cm,
                          const exact::CostModel& costs, const FullSweep& sweep) {
  const std::vector<int>& subset = sweep.subsets[*sweep.winner];
  std::vector<int> layout;
  for (const int local : sweep.route.initial) {
    layout.push_back(subset[static_cast<std::size_t>(local)]);
  }
  exact::Router router(c, cm, std::move(layout));
  std::size_t k = 0;
  for (const auto& g : c) {
    if (g.is_cnot()) {
      for (const auto& [a, b] : sweep.route.swaps[k]) {
        router.swap(subset[static_cast<std::size_t>(a)], subset[static_cast<std::size_t>(b)]);
      }
      ++k;
    }
    router.emit(g);
  }
  return std::move(router).finish(MappingResult{}, costs, /*verify=*/false,
                                  exact::Router::Clock::now());
}

/// map_exact (Dp, subsets, one thread) against the full sweep: same status,
/// cost and winning subset, and a bit-identical mapped circuit.
void expect_sweep_result(const Circuit& c, const arch::CouplingMap& cm,
                         exact::CostObjective objective, PermutationStrategy strategy,
                         const std::string& what) {
  ExactOptions opt = fast_options(EngineKind::Dp);
  opt.use_subsets = true;
  opt.strategy = strategy;
  opt.costs.objective = objective;
  opt.num_threads = 1;
  const exact::CostModel costs = opt.costs.resolved(cm);
  const FullSweep sweep = full_sweep(c, cm, costs, strategy);
  const MappingResult res = map_exact(c, cm, opt);
  if (!sweep.winner) {
    EXPECT_EQ(res.status, Status::Unsat) << what;
    return;
  }
  ASSERT_EQ(res.status, Status::Optimal) << what;
  EXPECT_EQ(res.objective_cost, sweep.route.cost) << what;
  std::vector<int> used = res.initial_layout;
  std::sort(used.begin(), used.end());
  EXPECT_EQ(used, sweep.subsets[*sweep.winner]) << what;
  const MappingResult expected = lift_winner(c, cm, costs, sweep);
  EXPECT_EQ(res.mapped, expected.mapped) << what;
  EXPECT_EQ(res.initial_layout, expected.initial_layout) << what;
  EXPECT_EQ(res.final_layout, expected.final_layout) << what;
}

TEST(SubsetClassReduction, DpResultsEqualTheFullSweep) {
  // Every built-in architecture plus three synthetic ones, at n = 3…6
  // wherever n < m and the subset count stays small; both objectives, all
  // four Sec. 4.2 strategies (the triangle one only where a triangle
  // exists), two random circuits each.
  const std::vector<arch::CouplingMap> archs{
      arch::ibm_qx2(),   arch::ibm_qx4(),   arch::ibm_qx5(),    arch::ibm_tokyo(),
      arch::ibm_hex27(), arch::ibm_hex65(), arch::ibm_hex127(), arch::ring(6),
      arch::grid(2, 3),  arch::linear(6)};
  int cases = 0;
  for (const auto& cm : archs) {
    for (int n = 3; n <= 6 && n < cm.num_physical(); ++n) {
      if (arch::connected_subsets(cm, n).size() > 300) continue;
      for (const auto objective :
           {exact::CostObjective::GateCount, exact::CostObjective::ErrorWeighted}) {
        for (const auto strategy :
             {PermutationStrategy::All, PermutationStrategy::DisjointQubits,
              PermutationStrategy::OddGates, PermutationStrategy::QubitTriangle}) {
          if (strategy == PermutationStrategy::QubitTriangle && !cm.has_triangle()) continue;
          for (const std::uint64_t seed : {1, 2}) {
            const Circuit c = bench::random_circuit(n, 2, 5, seed, "reduction");
            expect_sweep_result(c, cm, objective, strategy,
                                cm.name() + " n=" + std::to_string(n) + " " +
                                    exact::to_string(objective) + " " +
                                    exact::to_string(strategy) + " seed " +
                                    std::to_string(seed));
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 360);  // the coverage above, so no case drops out unnoticed
}

TEST(SubsetClassReduction, CdclStatusAndCostEqualTheFullSweep) {
  for (const auto& cm : {arch::ibm_qx4(), arch::ibm_qx5()}) {
    for (const int n : {3, 4}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Circuit c = bench::random_circuit(n, 2, 5, seed, "reduction");
        ExactOptions opt = fast_options(EngineKind::Cdcl);
        opt.use_subsets = true;
        opt.num_threads = 1;
        const std::string what = cm.name() + " n=" + std::to_string(n) + " seed " +
                                 std::to_string(seed);
        const FullSweep sweep =
            full_sweep(c, cm, opt.costs.resolved(cm), PermutationStrategy::All);
        ASSERT_TRUE(sweep.winner) << what;
        const MappingResult res = map_exact(c, cm, opt);
        EXPECT_EQ(res.status, Status::Optimal) << what;
        EXPECT_EQ(res.objective_cost, sweep.route.cost) << what;
        EXPECT_TRUE(res.verified) << what << ": " << res.verify_message;
      }
    }
  }
}

}  // namespace
}  // namespace qxmap
