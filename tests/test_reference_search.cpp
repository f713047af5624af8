#include "exact/reference_search.hpp"

#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "bench_circuits/table1_suite.hpp"

namespace qxmap {
namespace {

using exact::CostModel;
using exact::minimal_cost_reference;

CostModel qx_costs() {
  CostModel c;
  c.swap_cost = 7;
  c.reverse_cost = 4;
  return c;
}

std::vector<std::size_t> all_points(std::size_t num_gates) {
  std::vector<std::size_t> pts;
  for (std::size_t k = 1; k < num_gates; ++k) pts.push_back(k);
  return pts;
}

TEST(ReferenceSearch, EmptySkeletonIsFree) {
  const auto cm = arch::ibm_qx4();
  const auto r = minimal_cost_reference({}, 3, cm, {}, qx_costs());
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cost_f, 0);
}

TEST(ReferenceSearch, SingleCnotIsFree) {
  const auto cm = arch::ibm_qx4();
  const auto r = minimal_cost_reference({Gate::cnot(0, 1)}, 2, cm, {}, qx_costs());
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cost_f, 0);
}

TEST(ReferenceSearch, OppositeDirectionsCost4) {
  const auto cm = arch::ibm_qx4();
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 0)};
  const auto r = minimal_cost_reference(cnots, 2, cm, all_points(2), qx_costs());
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cost_f, 4);
}

TEST(ReferenceSearch, PaperExampleCosts4) {
  // Fig. 1 -> Fig. 5: the minimal realisation on QX4 costs F = 4.
  const Circuit c = bench::paper_example_circuit();
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  const auto cm = arch::ibm_qx4();
  const auto r =
      minimal_cost_reference(cnots, 4, cm, all_points(cnots.size()), qx_costs());
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cost_f, 4);
}

TEST(ReferenceSearch, InfeasibleWithoutPermutationPoints) {
  const auto cm = arch::ibm_qx4();
  // K4 interaction pattern cannot sit on QX4 under one placement.
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(2, 3), Gate::cnot(0, 2),
                                Gate::cnot(1, 3), Gate::cnot(0, 3), Gate::cnot(1, 2)};
  const auto r = minimal_cost_reference(cnots, 4, cm, {}, qx_costs());
  EXPECT_FALSE(r.feasible);
  // With permutations it becomes feasible.
  const auto r2 = minimal_cost_reference(cnots, 4, cm, all_points(6), qx_costs());
  EXPECT_TRUE(r2.feasible);
  EXPECT_GT(r2.cost_f, 0);
}

TEST(ReferenceSearch, RestrictingPointsNeverHelps) {
  // F(all points) <= F(fewer points) — monotonicity the paper relies on.
  const auto cm = arch::ibm_qx4();
  for (const auto& b : bench::table1_benchmarks()) {
    if (b.cnot > 12) continue;  // keep the sweep quick
    const Circuit c = b.build();
    std::vector<Gate> cnots;
    for (const auto& g : c) {
      if (g.is_cnot()) cnots.push_back(g);
    }
    const auto full = minimal_cost_reference(cnots, b.n, cm,
                                             all_points(cnots.size()), qx_costs());
    std::vector<std::size_t> odd;
    for (std::size_t k = 2; k < cnots.size(); k += 2) odd.push_back(k);
    const auto restricted = minimal_cost_reference(cnots, b.n, cm, odd, qx_costs());
    ASSERT_TRUE(full.feasible);
    if (restricted.feasible) {
      EXPECT_LE(full.cost_f, restricted.cost_f) << b.name;
    }
  }
}

TEST(ReferenceSearch, CostIsMultipleOfGateCosts) {
  // Every achievable F is a nonneg combination of 7 (SWAP) and 4 (reversal).
  const auto cm = arch::ibm_qx4();
  for (const auto& b : bench::table1_benchmarks()) {
    if (b.n > 4 || b.cnot > 12) continue;
    const Circuit c = b.build();
    std::vector<Gate> cnots;
    for (const auto& g : c) {
      if (g.is_cnot()) cnots.push_back(g);
    }
    const auto r =
        minimal_cost_reference(cnots, b.n, cm, all_points(cnots.size()), qx_costs());
    ASSERT_TRUE(r.feasible);
    bool representable = false;
    for (long long swaps = 0; 7 * swaps <= r.cost_f; ++swaps) {
      if ((r.cost_f - 7 * swaps) % 4 == 0) representable = true;
    }
    EXPECT_TRUE(representable) << b.name << " F=" << r.cost_f;
  }
}

TEST(ReferenceSearch, Validation) {
  const auto cm = arch::ibm_qx4();
  EXPECT_THROW((void)minimal_cost_reference({Gate::cnot(0, 1)}, 6, cm, {}, qx_costs()),
               std::invalid_argument);
  EXPECT_THROW((void)minimal_cost_reference({Gate::cnot(0, 1)}, 2, cm, {}, CostModel{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace qxmap
