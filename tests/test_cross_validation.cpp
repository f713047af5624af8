/// Cross-validation sweeps: every component that can certify another one
/// is pitted against it on randomized inputs, plus failure-injection tests
/// proving that the verification layer actually catches broken mappings.

#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "exact/exact_mapper.hpp"
#include "exact/reference_search.hpp"
#include "exact/strategies.hpp"
#include "exact/swap_synthesis.hpp"
#include "heuristic/astar_mapper.hpp"
#include "heuristic/layer_weight_mapper.hpp"
#include "heuristic/sabre_mapper.hpp"
#include "heuristic/stochastic_swap.hpp"
#include "sim/equivalence.hpp"
#include "sim/linear_reversible.hpp"
#include "sim/statevector.hpp"

namespace qxmap {
namespace {

using reason::EngineKind;
using reason::Status;

// ---------------------------------------------------------------------
// SAT/Z3 mappers vs. the DP certifier, across strategies and engines.
// ---------------------------------------------------------------------

struct SweepCase {
  std::uint64_t seed;
  EngineKind engine;
  exact::PermutationStrategy strategy;
};

class ExactVsReference : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ExactVsReference, EngineNeverBeatsAndAlwaysMatchesReference) {
  const auto& param = GetParam();
  const Circuit c = bench::random_circuit(4, 2, 6, param.seed, "sweep");
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  const auto cm = arch::ibm_qx4();
  const auto points = exact::permutation_points(cnots, param.strategy, cm);
  exact::CostModel costs;
  costs.swap_cost = 7;
  const auto ref = exact::minimal_cost_reference(cnots, 4, cm, points, costs);

  exact::ExactOptions opt;
  opt.engine = param.engine;
  opt.strategy = param.strategy;
  opt.budget = std::chrono::milliseconds(30000);
  const auto res = exact::map_exact(c, cm, opt);

  if (!ref.feasible) {
    EXPECT_EQ(res.status, Status::Unsat);
    return;
  }
  ASSERT_EQ(res.status, Status::Optimal);
  // The symbolic method must agree with the independent DP under the SAME
  // permutation-point restriction.
  EXPECT_EQ(res.cost_f, ref.cost_f);
  EXPECT_TRUE(res.verified) << res.verify_message;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    for (const auto engine : {EngineKind::Z3, EngineKind::Cdcl}) {
      for (const auto strategy :
           {exact::PermutationStrategy::All, exact::PermutationStrategy::DisjointQubits,
            exact::PermutationStrategy::OddGates, exact::PermutationStrategy::QubitTriangle}) {
        cases.push_back({seed, engine, strategy});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExactVsReference, ::testing::ValuesIn(sweep_cases()));

// The default engine against the SAT path on the same sweep: the layout DP
// and CDCL must agree on status and optimum under every Sec. 4.2 strategy.
class DpVsCdcl : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DpVsCdcl, SameStatusAndCost) {
  const auto& param = GetParam();
  const Circuit c = bench::random_circuit(4, 2, 6, param.seed, "sweep");
  exact::ExactOptions opt;
  opt.strategy = param.strategy;
  opt.budget = std::chrono::milliseconds(30000);
  opt.engine = EngineKind::Cdcl;
  const auto cdcl = exact::map_exact(c, arch::ibm_qx4(), opt);
  opt.engine = EngineKind::Dp;
  const auto dp = exact::map_exact(c, arch::ibm_qx4(), opt);
  ASSERT_NE(cdcl.status, Status::Unknown);
  EXPECT_EQ(dp.status, cdcl.status);
  EXPECT_EQ(dp.cost_f, cdcl.cost_f);
  EXPECT_EQ(dp.objective_cost, cdcl.objective_cost);
  if (dp.status == Status::Optimal) {
    EXPECT_TRUE(dp.verified) << dp.verify_message;
  }
}

std::vector<SweepCase> dp_sweep_cases() {
  std::vector<SweepCase> cases;
  for (const auto& c : sweep_cases()) {
    if (c.engine == EngineKind::Cdcl) cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DpVsCdcl, ::testing::ValuesIn(dp_sweep_cases()));

// ---------------------------------------------------------------------
// GF(2) semantics vs. full statevector simulation on CNOT circuits.
// ---------------------------------------------------------------------

class LinearVsStatevector : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinearVsStatevector, AgreeOnAllBasisStates) {
  const Circuit c = bench::random_cnot_circuit(5, 25, GetParam(), "gf2-vs-sv");
  const auto m = sim::linear_map(c);
  for (std::uint64_t input = 0; input < 32; ++input) {
    sim::Statevector sv = sim::Statevector::basis(5, input);
    sv.apply_circuit(c);
    // Predicted output: y = M x over GF(2).
    std::uint64_t predicted = 0;
    for (std::size_t row = 0; row < 5; ++row) {
      bool bit = false;
      for (std::size_t col = 0; col < 5; ++col) {
        if (m.get(row, col) && ((input >> col) & 1ULL)) bit = !bit;
      }
      if (bit) predicted |= 1ULL << row;
    }
    EXPECT_NEAR(std::abs(sv.amplitude(predicted)), 1.0, 1e-9)
        << "input " << input << " predicted " << predicted;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearVsStatevector, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------
// Exhaustive swap table vs. greedy token swapping on every architecture
// small enough to tabulate.
// ---------------------------------------------------------------------

class TableVsGreedy : public ::testing::TestWithParam<const char*> {};

TEST_P(TableVsGreedy, GreedyIsValidUpperBound) {
  const auto cm = arch::by_name(GetParam());
  const arch::SwapCostTable table(cm);
  const auto m = static_cast<std::size_t>(cm.num_physical());
  std::size_t checked = 0;
  for (const auto& pi : Permutation::all(m)) {
    const auto seq = arch::greedy_swap_sequence(cm, pi);
    Permutation realised(m);
    for (const auto& [a, b] : seq) realised = realised.with_transposition(a, b);
    EXPECT_EQ(realised, pi);
    EXPECT_GE(static_cast<int>(seq.size()), table.swaps(pi));
    ++checked;
  }
  EXPECT_EQ(checked, Permutation::factorial(m));
}

INSTANTIATE_TEST_SUITE_P(SmallArchs, TableVsGreedy,
                         ::testing::Values("qx2", "qx4", "linear5", "ring5", "clique4"));

// ---------------------------------------------------------------------
// All heuristics vs. the certified floor on one batch.
// ---------------------------------------------------------------------

class HeuristicFloor : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeuristicFloor, NoHeuristicBeatsTheCertifiedMinimum) {
  const Circuit c = bench::structured_circuit(5, 9, 12, GetParam(), "floor");
  const auto cm = arch::ibm_qx4();
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  std::vector<std::size_t> pts;
  for (std::size_t k = 1; k < cnots.size(); ++k) pts.push_back(k);
  exact::CostModel costs;
  costs.swap_cost = 7;
  const auto ref = exact::minimal_cost_reference(cnots, 5, cm, pts, costs);
  ASSERT_TRUE(ref.feasible);

  heuristic::StochasticSwapOptions sopt;
  sopt.seed = GetParam();
  EXPECT_GE(heuristic::map_stochastic_swap(c, cm, sopt).cost_f, ref.cost_f);
  EXPECT_GE(heuristic::map_astar(c, cm).cost_f, ref.cost_f);
  EXPECT_GE(heuristic::map_sabre(c, cm).cost_f, ref.cost_f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicFloor, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---------------------------------------------------------------------
// SU(4) sweep: every heuristic (including the layer-weight mapper) vs.
// the certified DP floor, under BOTH cost objectives.
// ---------------------------------------------------------------------

struct Su4Case {
  std::uint64_t seed;
  int num_qubits;
  exact::CostObjective objective;
};

class Su4CrossValidation : public ::testing::TestWithParam<Su4Case> {};

TEST_P(Su4CrossValidation, EveryHeuristicIsLegalEquivalentAndAboveTheFloor) {
  const auto& param = GetParam();
  const Circuit c = bench::su4_random_circuit(param.num_qubits, 2, param.seed, "su4-xval");
  const auto cm = arch::ibm_qx4();

  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  std::vector<std::size_t> pts;
  for (std::size_t k = 1; k < cnots.size(); ++k) pts.push_back(k);
  exact::CostModel costs;
  costs.objective = param.objective;
  const exact::CostModel resolved = costs.resolved(cm);
  const auto ref =
      exact::minimal_cost_reference(cnots, param.num_qubits, cm, pts, resolved);
  ASSERT_TRUE(ref.feasible);

  const auto check = [&](const exact::MappingResult& res, const char* who) {
    SCOPED_TRACE(who);
    EXPECT_EQ(res.status, Status::Feasible);
    EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
    EXPECT_TRUE(res.verified) << res.verify_message;
    EXPECT_EQ(res.objective, exact::to_string(param.objective));
    const auto eq = sim::check_mapped_circuit(c, res.mapped, res.initial_layout,
                                              res.final_layout);
    EXPECT_TRUE(eq.equivalent) << eq.message;
    // No heuristic may beat the certified optimum in its own currency.
    EXPECT_GE(res.objective_cost, ref.cost_f);
  };

  heuristic::StochasticSwapOptions sopt;
  sopt.seed = param.seed;
  sopt.costs = costs;
  check(heuristic::map_stochastic_swap(c, cm, sopt), "stochastic");
  heuristic::AStarOptions aopt;
  aopt.costs = costs;
  check(heuristic::map_astar(c, cm, aopt), "astar");
  heuristic::SabreOptions bopt;
  bopt.costs = costs;
  check(heuristic::map_sabre(c, cm, bopt), "sabre");
  heuristic::LayerWeightOptions lopt;
  lopt.seed = param.seed;
  lopt.costs = costs;
  check(heuristic::map_layer_weight(c, cm, lopt), "layer-weight");
}

std::vector<Su4Case> su4_cases() {
  std::vector<Su4Case> cases;
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    for (const int nq : {4, 5}) {
      for (const auto objective :
           {exact::CostObjective::GateCount, exact::CostObjective::ErrorWeighted}) {
        cases.push_back({seed, nq, objective});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Su4CrossValidation, ::testing::ValuesIn(su4_cases()));

TEST(Su4CrossValidation, ExactErrorWeightedMatchesTheReference) {
  // The symbolic mapper and the DP must also agree when the objective is
  // error-weighted: same restriction (all permutation points), same resolved
  // weights, same optimum.
  const Circuit c = bench::su4_random_circuit(4, 1, 404, "su4-exact-ew");
  const auto cm = arch::ibm_qx4();
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  exact::ExactOptions opt;
  opt.engine = EngineKind::Cdcl;
  opt.strategy = exact::PermutationStrategy::All;
  opt.costs.objective = exact::CostObjective::ErrorWeighted;
  opt.budget = std::chrono::milliseconds(60000);
  const auto pts = exact::permutation_points(cnots, opt.strategy, cm);
  const exact::CostModel resolved = opt.costs.resolved(cm);
  const auto ref = exact::minimal_cost_reference(cnots, 4, cm, pts, resolved);
  ASSERT_TRUE(ref.feasible);
  const auto res = exact::map_exact(c, cm, opt);
  ASSERT_EQ(res.status, Status::Optimal);
  // objective_cost is in resolved error-weighted units — the DP's currency.
  // cost_f stays the paper's Eq. (5) gate count (added gates), so it is NOT
  // compared against the error-weighted floor.
  EXPECT_EQ(res.objective_cost, ref.cost_f);
  EXPECT_EQ(res.objective, "error_weighted");
  EXPECT_EQ(res.cost_f,
            static_cast<long long>(res.mapped.size()) - static_cast<long long>(c.size()));
  EXPECT_TRUE(res.verified) << res.verify_message;

  // The default engine reaches the same error-weighted optimum.
  opt.engine = EngineKind::Dp;
  const auto dp = exact::map_exact(c, cm, opt);
  ASSERT_EQ(dp.status, Status::Optimal);
  EXPECT_EQ(dp.objective_cost, res.objective_cost);
  EXPECT_EQ(dp.cost_f, res.cost_f);
  EXPECT_TRUE(dp.verified) << dp.verify_message;
}

// ---------------------------------------------------------------------
// Failure injection: tampered results must fail verification.
// ---------------------------------------------------------------------

exact::MappingResult mapped_fixture() {
  const Circuit c = bench::random_circuit(3, 2, 5, 77, "tamper");
  exact::ExactOptions opt;
  opt.budget = std::chrono::milliseconds(30000);
  auto res = exact::map_exact(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(res.status, Status::Optimal);
  return res;
}

TEST(FailureInjection, DroppedGateIsDetected) {
  const Circuit original = bench::random_circuit(3, 2, 5, 77, "tamper");
  auto res = mapped_fixture();
  Circuit tampered(res.mapped.num_qubits());
  for (std::size_t i = 0; i + 1 < res.mapped.size(); ++i) tampered.append(res.mapped.gate(i));
  const auto eq = sim::check_mapped_circuit(original, tampered, res.initial_layout,
                                            res.final_layout);
  EXPECT_FALSE(eq.equivalent);
}

TEST(FailureInjection, ExtraGateIsDetected) {
  const Circuit original = bench::random_circuit(3, 2, 5, 77, "tamper");
  auto res = mapped_fixture();
  Circuit tampered = res.mapped;
  tampered.x(0);
  const auto eq = sim::check_mapped_circuit(original, tampered, res.initial_layout,
                                            res.final_layout);
  EXPECT_FALSE(eq.equivalent);
}

TEST(FailureInjection, WrongLayoutIsDetected) {
  const Circuit original = bench::random_circuit(3, 2, 5, 77, "tamper");
  const auto res = mapped_fixture();
  auto wrong = res.initial_layout;
  std::swap(wrong[0], wrong[1]);
  const auto eq = sim::check_mapped_circuit(original, res.mapped, wrong, res.final_layout);
  EXPECT_FALSE(eq.equivalent);
}

TEST(FailureInjection, FlippedCnotInSkeletonIsDetected) {
  const Circuit original = bench::random_circuit(3, 0, 6, 78, "tamper-skel");
  exact::ExactOptions opt;
  opt.budget = std::chrono::milliseconds(30000);
  const auto res = exact::map_exact(original, arch::ibm_qx4(), opt);
  ASSERT_EQ(res.status, Status::Optimal);
  Circuit tampered(res.routed_skeleton.num_qubits());
  bool flipped = false;
  for (const auto& g : res.routed_skeleton) {
    if (!flipped && g.is_cnot()) {
      tampered.cnot(g.target, g.control);
      flipped = true;
    } else {
      tampered.append(g);
    }
  }
  ASSERT_TRUE(flipped);
  EXPECT_FALSE(sim::implements_skeleton(original.cnot_skeleton(), tampered, res.initial_layout,
                                        res.final_layout));
}

TEST(FailureInjection, VerifierAcceptsTheGenuineResult) {
  const Circuit original = bench::random_circuit(3, 2, 5, 77, "tamper");
  const auto res = mapped_fixture();
  const auto eq = sim::check_mapped_circuit(original, res.mapped, res.initial_layout,
                                            res.final_layout);
  EXPECT_TRUE(eq.equivalent) << eq.message;
}

}  // namespace
}  // namespace qxmap
