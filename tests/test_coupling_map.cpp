#include "arch/coupling_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "arch/architectures.hpp"

namespace qxmap {
namespace {

using arch::CouplingMap;

TEST(CouplingMap, ConstructionValidates) {
  EXPECT_NO_THROW(CouplingMap(3, {{0, 1}, {1, 2}}));
  EXPECT_THROW(CouplingMap(0, {}), std::invalid_argument);
  EXPECT_THROW(CouplingMap(2, {{0, 2}}), std::invalid_argument);
  EXPECT_THROW(CouplingMap(2, {{1, 1}}), std::invalid_argument);
}

TEST(CouplingMap, DuplicateEdgesDeduplicated) {
  const CouplingMap cm(2, {{0, 1}, {0, 1}});
  EXPECT_EQ(cm.edges().size(), 1u);
}

TEST(CouplingMap, DirectedQueries) {
  const auto cm = arch::ibm_qx4();
  EXPECT_TRUE(cm.allows(1, 0));
  EXPECT_FALSE(cm.allows(0, 1));
  EXPECT_TRUE(cm.coupled(0, 1));
  EXPECT_TRUE(cm.coupled(1, 0));
  EXPECT_FALSE(cm.coupled(0, 3));
}

TEST(CouplingMap, QueriesMatchTheEdgeListsAndRejectOddArguments) {
  // allows/coupled read the per-qubit lists; every answer must equal a
  // search of the global sorted edge lists, and equal or out-of-range
  // arguments answer false without throwing.
  for (const auto& cm : {arch::ibm_qx4(), arch::ibm_qx5(), arch::ibm_tokyo()}) {
    const int m = cm.num_physical();
    for (int a = -1; a <= m; ++a) {
      for (int b = -1; b <= m; ++b) {
        const bool directed = std::binary_search(cm.edges().begin(), cm.edges().end(),
                                                 std::make_pair(a, b));
        const bool undirected =
            std::binary_search(cm.undirected_edges().begin(), cm.undirected_edges().end(),
                               std::make_pair(std::min(a, b), std::max(a, b)));
        EXPECT_EQ(cm.allows(a, b), directed) << cm.name() << ' ' << a << '>' << b;
        EXPECT_EQ(cm.coupled(a, b), undirected) << cm.name() << ' ' << a << '-' << b;
      }
    }
    EXPECT_FALSE(cm.allows(0, 0));
    EXPECT_FALSE(cm.coupled(-1, 0));
    EXPECT_FALSE(cm.allows(m, 0));
  }
}

TEST(CouplingMap, UndirectedEdgesSortedAndDeduped) {
  const CouplingMap cm(3, {{1, 0}, {0, 1}, {2, 1}});
  EXPECT_EQ(cm.undirected_edges(),
            (std::vector<std::pair<int, int>>{{0, 1}, {1, 2}}));
}

TEST(CouplingMap, Neighbours) {
  const auto cm = arch::ibm_qx4();
  EXPECT_EQ(cm.neighbours(2), (std::vector<int>{0, 1, 3, 4}));
  EXPECT_EQ(cm.neighbours(0), (std::vector<int>{1, 2}));
  EXPECT_THROW((void)cm.neighbours(5), std::out_of_range);
}

TEST(CouplingMap, Connectivity) {
  EXPECT_TRUE(arch::ibm_qx4().is_connected());
  const CouplingMap split(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(split.is_connected());
}

TEST(CouplingMap, SubsetConnectivityMatchesExample9) {
  // Example 9: all useful 4-subsets of QX4 must contain p3 (0-based qubit 2).
  const auto cm = arch::ibm_qx4();
  EXPECT_TRUE(cm.subset_connected({0, 1, 2, 3}));
  EXPECT_TRUE(cm.subset_connected({0, 1, 2, 4}));
  EXPECT_TRUE(cm.subset_connected({0, 2, 3, 4}));
  EXPECT_TRUE(cm.subset_connected({1, 2, 3, 4}));
  EXPECT_FALSE(cm.subset_connected({0, 1, 3, 4}));  // omits qubit 2
  EXPECT_TRUE(cm.subset_connected({}));
  EXPECT_TRUE(cm.subset_connected({3}));
}

TEST(CouplingMap, TriangleDetection) {
  EXPECT_TRUE(arch::ibm_qx4().has_triangle());   // p1 p2 p3 (0-based 0 1 2)
  EXPECT_FALSE(arch::linear(4).has_triangle());
  EXPECT_FALSE(arch::grid(2, 2).has_triangle());
}

TEST(CouplingMap, InducedSubmapRenumbers) {
  const auto cm = arch::ibm_qx4();
  const auto sub = cm.induced({2, 3, 4});  // qubits p3, p4, p5
  EXPECT_EQ(sub.num_physical(), 3);
  // Global edges among {2,3,4}: (3,2), (3,4), (4,2) -> local (1,0), (1,2), (2,0).
  EXPECT_TRUE(sub.allows(1, 0));
  EXPECT_TRUE(sub.allows(1, 2));
  EXPECT_TRUE(sub.allows(2, 0));
  EXPECT_EQ(sub.edges().size(), 3u);
}

TEST(CouplingMap, InducedValidation) {
  const auto cm = arch::ibm_qx4();
  EXPECT_THROW(cm.induced({0, 0}), std::invalid_argument);
  EXPECT_THROW(cm.induced({0, 9}), std::out_of_range);
}

TEST(CouplingMap, InducedOfAllQubitsKeepsEverything) {
  const auto cm = arch::ibm_qx4();
  const auto sub = cm.induced({0, 1, 2, 3, 4});
  EXPECT_EQ(sub.edges(), cm.edges());
}

TEST(CouplingMap, ErrorRatesValidation) {
  CouplingMap cm(2, {{0, 1}});
  arch::ErrorRates ok;
  ok.cnot[{0, 1}] = 0.02;
  EXPECT_NO_THROW(cm.set_error_rates(ok));
  EXPECT_TRUE(cm.has_error_rates());

  arch::ErrorRates bad_edge;
  bad_edge.cnot[{1, 0}] = 0.02;  // not an allowed direction
  EXPECT_THROW(cm.set_error_rates(bad_edge), std::invalid_argument);
  arch::ErrorRates bad_rate;
  bad_rate.cnot[{0, 1}] = 1.0;  // outside [0, 1)
  EXPECT_THROW(cm.set_error_rates(bad_rate), std::invalid_argument);
  arch::ErrorRates bad_len;
  bad_len.single_qubit = {0.001};  // needs one entry per qubit
  EXPECT_THROW(cm.set_error_rates(bad_len), std::invalid_argument);
}

TEST(CouplingMap, NoiseFingerprintSeparatesCalibrations) {
  // Structural fingerprint deliberately ignores calibration (it keys the
  // SwapCostTable cache); the noise fingerprint captures it.
  CouplingMap a(2, {{0, 1}});
  CouplingMap b(2, {{0, 1}});
  EXPECT_TRUE(a.noise_fingerprint().empty());
  arch::ErrorRates ra;
  ra.cnot[{0, 1}] = 0.02;
  a.set_error_rates(ra);
  arch::ErrorRates rb;
  rb.cnot[{0, 1}] = 0.03;
  b.set_error_rates(rb);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.noise_fingerprint(), b.noise_fingerprint());
  EXPECT_FALSE(a.noise_fingerprint().empty());
  // Mean helpers fall back when no calibration covers the quantity.
  EXPECT_DOUBLE_EQ(a.mean_cnot_error(0.9), 0.02);
  EXPECT_DOUBLE_EQ(a.mean_single_qubit_error(0.9), 0.9);
}

}  // namespace
}  // namespace qxmap
