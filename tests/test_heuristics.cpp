#include "heuristic/astar_mapper.hpp"
#include "heuristic/layer_weight_mapper.hpp"
#include "heuristic/stochastic_swap.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "arch/architectures.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/reference_search.hpp"
#include "exact/swap_synthesis.hpp"
#include "sim/equivalence.hpp"

namespace qxmap {
namespace {

using heuristic::AStarOptions;
using heuristic::map_astar;
using heuristic::map_stochastic_swap;
using heuristic::StochasticSwapOptions;

long long certified_minimum(const Circuit& c, const arch::CouplingMap& cm) {
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  std::vector<std::size_t> pts;
  for (std::size_t k = 1; k < cnots.size(); ++k) pts.push_back(k);
  exact::CostModel costs;
  costs.swap_cost = exact::swap_gate_cost(cm);
  const auto r = exact::minimal_cost_reference(cnots, c.num_qubits(), cm, pts, costs);
  EXPECT_TRUE(r.feasible);
  return r.cost_f;
}

void expect_valid_mapping(const Circuit& original, const exact::MappingResult& res,
                          const arch::CouplingMap& cm) {
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_TRUE(res.verified) << res.verify_message;
  if (cm.num_physical() <= 8) {
    const auto eq = sim::check_mapped_circuit(original, res.mapped, res.initial_layout,
                                              res.final_layout);
    EXPECT_TRUE(eq.equivalent) << eq.message;
  }
  EXPECT_EQ(res.cost_f,
            static_cast<long long>(res.mapped.size()) - static_cast<long long>(original.size()));
}

TEST(StochasticSwap, MapsTable1StyleCircuits) {
  const auto cm = arch::ibm_qx4();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Circuit c = bench::random_circuit(5, 8, 12, seed, "stoch");
    const auto res = map_stochastic_swap(c, cm);
    expect_valid_mapping(c, res, cm);
    EXPECT_GE(res.cost_f, certified_minimum(c, cm));
    EXPECT_EQ(res.engine_name, "qiskit-stochastic");
  }
}

TEST(StochasticSwap, DeterministicPerSeed) {
  const Circuit c = bench::random_circuit(5, 5, 15, 7, "det");
  StochasticSwapOptions opt;
  opt.seed = 123;
  const auto a = map_stochastic_swap(c, arch::ibm_qx4(), opt);
  const auto b = map_stochastic_swap(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(a.mapped, b.mapped);
  EXPECT_EQ(a.cost_f, b.cost_f);
}

TEST(StochasticSwap, BestOfRunsProtocolNeverHurts) {
  // The paper ran Qiskit 5 times and kept the best.
  const Circuit c = bench::random_circuit(5, 6, 14, 21, "runs");
  StochasticSwapOptions one;
  one.seed = 9;
  one.runs = 1;
  StochasticSwapOptions five;
  five.seed = 9;
  five.runs = 5;
  const auto r1 = map_stochastic_swap(c, arch::ibm_qx4(), one);
  const auto r5 = map_stochastic_swap(c, arch::ibm_qx4(), five);
  EXPECT_LE(r5.mapped.size(), r1.mapped.size());
  EXPECT_EQ(r5.instances_solved, 5);
}

TEST(StochasticSwap, WorksOnLargerArchitectures) {
  const auto cm = arch::ibm_qx5();
  const Circuit c = bench::random_circuit(10, 10, 25, 3, "qx5");
  const auto res = map_stochastic_swap(c, cm);
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_TRUE(res.verified) << res.verify_message;
}

TEST(StochasticSwap, Validation) {
  Circuit big(6);
  big.cnot(0, 5);
  EXPECT_THROW(map_stochastic_swap(big, arch::ibm_qx4(), {}), std::invalid_argument);
  // Raw swap pseudo-gates route directly (self-expanded by the mapper).
  Circuit has_swap(2);
  has_swap.swap(0, 1);
  const auto swap_res = map_stochastic_swap(has_swap, arch::ibm_qx4(), {});
  EXPECT_EQ(swap_res.mapped.counts().swap, 0);
  EXPECT_TRUE(exact::satisfies_coupling(swap_res.mapped, arch::ibm_qx4()));
  Circuit fine(2);
  fine.cnot(0, 1);
  StochasticSwapOptions bad;
  bad.trials = 0;
  EXPECT_THROW(map_stochastic_swap(fine, arch::ibm_qx4(), bad), std::invalid_argument);
  EXPECT_THROW(map_stochastic_swap(fine, arch::CouplingMap(3, {{0, 1}}), {}),
               std::invalid_argument);
}

TEST(AStar, MapsTable1StyleCircuits) {
  const auto cm = arch::ibm_qx4();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Circuit c = bench::random_circuit(5, 8, 12, seed, "astar");
    const auto res = map_astar(c, cm);
    expect_valid_mapping(c, res, cm);
    EXPECT_GE(res.cost_f, certified_minimum(c, cm));
    EXPECT_EQ(res.engine_name, "astar");
  }
}

TEST(AStar, DeterministicAlways) {
  const Circuit c = bench::random_circuit(5, 5, 15, 7, "det");
  const auto a = map_astar(c, arch::ibm_qx4());
  const auto b = map_astar(c, arch::ibm_qx4());
  EXPECT_EQ(a.mapped, b.mapped);
}

TEST(AStar, HandlesAlreadyMappableCircuit) {
  Circuit c(2, "simple");
  c.cnot(1, 0);  // directly on a QX4 edge under the trivial layout
  const auto res = map_astar(c, arch::ibm_qx4());
  EXPECT_EQ(res.swaps_inserted, 0);
  EXPECT_EQ(res.cost_f, 0);
}

TEST(AStar, WorksOnTokyo) {
  const auto cm = arch::ibm_tokyo();
  const Circuit c = bench::random_circuit(12, 5, 20, 11, "tokyo");
  const auto res = map_astar(c, cm);
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_TRUE(res.verified) << res.verify_message;
  // Bidirected couplings: no H repair ever needed.
  EXPECT_EQ(res.cnots_reversed, 0);
}

TEST(AStar, SearchBudgetRespected) {
  const Circuit c = bench::random_circuit(10, 0, 12, 2, "budget");
  AStarOptions opt;
  opt.max_expansions = 1;  // absurdly small: must fail cleanly on QX5
  EXPECT_THROW(map_astar(c, arch::ibm_qx5(), opt), std::invalid_argument);
}

TEST(LayerWeight, MapsTable1StyleCircuits) {
  const auto cm = arch::ibm_qx4();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Circuit c = bench::random_circuit(5, 8, 12, seed, "lw");
    const auto res = heuristic::map_layer_weight(c, cm);
    expect_valid_mapping(c, res, cm);
    EXPECT_GE(res.cost_f, certified_minimum(c, cm));
    EXPECT_EQ(res.engine_name, "layer-weight");
    EXPECT_EQ(res.objective, "gate_count");
    EXPECT_GT(res.objective_cost, 0);
  }
}

TEST(LayerWeight, DeterministicPerSeed) {
  const Circuit c = bench::random_circuit(5, 5, 15, 7, "lw-det");
  heuristic::LayerWeightOptions opt;
  opt.seed = 99;
  const auto a = heuristic::map_layer_weight(c, arch::ibm_qx4(), opt);
  const auto b = heuristic::map_layer_weight(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(a.mapped, b.mapped);
  EXPECT_EQ(a.cost_f, b.cost_f);
}

TEST(LayerWeight, MoreIterationsNeverHurt) {
  // Profile 0 (the deterministic decay weights) is always tried first, and
  // the best result over all profiles is kept — so extra iterations can
  // only tie or improve.
  const Circuit c = bench::random_circuit(5, 6, 14, 21, "lw-iters");
  heuristic::LayerWeightOptions one;
  one.iterations = 1;
  heuristic::LayerWeightOptions eight;
  eight.iterations = 8;
  const auto r1 = heuristic::map_layer_weight(c, arch::ibm_qx4(), one);
  const auto r8 = heuristic::map_layer_weight(c, arch::ibm_qx4(), eight);
  EXPECT_LE(r8.objective_cost, r1.objective_cost);
  EXPECT_EQ(r8.instances_solved, 8);
}

TEST(LayerWeight, ErrorWeightedObjectiveSurfacesInTheResult) {
  const Circuit c = bench::random_circuit(4, 4, 8, 5, "lw-ew");
  heuristic::LayerWeightOptions opt;
  opt.costs.objective = exact::CostObjective::ErrorWeighted;
  const auto res = heuristic::map_layer_weight(c, arch::ibm_qx4(), opt);
  expect_valid_mapping(c, res, arch::ibm_qx4());
  EXPECT_EQ(res.objective, "error_weighted");
}

TEST(LayerWeight, WorksOnLargeBidirectedArchitectures) {
  const auto cm = arch::ibm_tokyo();
  const Circuit c = bench::random_circuit(16, 5, 30, 11, "lw-tokyo");
  const auto res = heuristic::map_layer_weight(c, cm);
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_TRUE(res.verified) << res.verify_message;
  EXPECT_EQ(res.cnots_reversed, 0);  // bidirected: no H repair
}

TEST(LayerWeight, Validation) {
  Circuit big(6);
  big.cnot(0, 5);
  EXPECT_THROW(heuristic::map_layer_weight(big, arch::ibm_qx4(), {}), std::invalid_argument);
  Circuit fine(2);
  fine.cnot(0, 1);
  heuristic::LayerWeightOptions bad;
  bad.iterations = 0;
  EXPECT_THROW(heuristic::map_layer_weight(fine, arch::ibm_qx4(), bad),
               std::invalid_argument);
  heuristic::LayerWeightOptions bad_window;
  bad_window.lookahead_layers = 0;
  EXPECT_THROW(heuristic::map_layer_weight(fine, arch::ibm_qx4(), bad_window),
               std::invalid_argument);
  EXPECT_THROW(heuristic::map_layer_weight(fine, arch::CouplingMap(3, {{0, 1}}), {}),
               std::invalid_argument);
}

TEST(LayerWeight, DecayMustBeFiniteAndNonNegative) {
  Circuit fine(2);
  fine.cnot(0, 1);
  for (const double decay : {std::nan(""), -0.4, HUGE_VAL}) {
    heuristic::LayerWeightOptions bad_decay;
    bad_decay.decay = decay;
    EXPECT_THROW(heuristic::map_layer_weight(fine, arch::ibm_qx4(), bad_decay),
                 std::invalid_argument);
  }
  heuristic::LayerWeightOptions zero_decay;
  zero_decay.decay = 0;
  EXPECT_TRUE(heuristic::map_layer_weight(fine, arch::ibm_qx4(), zero_decay).verified);
}

TEST(Heuristics, ExactBeatsOrTiesHeuristicsEverywhere) {
  // The paper's central comparison, in miniature.
  const auto cm = arch::ibm_qx4();
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    const Circuit c = bench::random_circuit(4, 4, 8, seed, "cmp");
    const long long minimum = certified_minimum(c, cm);
    EXPECT_LE(minimum, map_stochastic_swap(c, cm).cost_f);
    EXPECT_LE(minimum, map_astar(c, cm).cost_f);
  }
}

}  // namespace
}  // namespace qxmap
