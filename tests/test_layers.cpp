#include "ir/layers.hpp"

#include <gtest/gtest.h>

namespace qxmap {
namespace {

/// Fig. 1b of the paper: the CNOT skeleton of the running example.
std::vector<Gate> fig1b_gates() {
  return {Gate::cnot(2, 3), Gate::cnot(0, 1), Gate::cnot(1, 2), Gate::cnot(0, 1),
          Gate::cnot(2, 1)};
}

TEST(Layers, AsapBasic) {
  Circuit c(4);
  c.cnot(0, 1);
  c.cnot(2, 3);  // disjoint from the first: same layer
  c.cnot(1, 2);  // depends on both: next layer
  const auto layers = asap_layers(c);
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(layers[1], (std::vector<std::size_t>{2}));
}

TEST(Layers, AsapSingleQubitGatesPack) {
  Circuit c(2);
  c.h(0);
  c.h(1);   // same layer
  c.t(0);   // next layer (same qubit as gate 0)
  const auto layers = asap_layers(c);
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[0].size(), 2u);
  EXPECT_EQ(layers[1], (std::vector<std::size_t>{2}));
}

TEST(Layers, AsapBarrierClosesLayers) {
  Circuit c(2);
  c.h(0);
  c.append(Gate::barrier());
  c.h(1);  // would fit layer 0, but the barrier forces layer 1
  const auto layers = asap_layers(c);
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[1], (std::vector<std::size_t>{2}));
}

TEST(Layers, AsapKeepsBarriersInPlace) {
  // A barrier ends the layer it closes; a leading one forms its own layer.
  Circuit c(2);
  c.append(Gate::barrier());
  c.h(0);
  c.cnot(0, 1);
  c.append(Gate::barrier());
  c.h(1);
  const auto layers = asap_layers(c);
  ASSERT_EQ(layers.size(), 4u);
  EXPECT_EQ(layers[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(layers[1], (std::vector<std::size_t>{1}));
  EXPECT_EQ(layers[2], (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(layers[3], (std::vector<std::size_t>{4}));
}

TEST(Layers, AsapEmptyCircuit) {
  EXPECT_TRUE(asap_layers(Circuit(3)).empty());
}

TEST(Layers, DisjointClustersMatchExample10) {
  // Paper Example 10: G' = {g3, g4, g5} (1-based) = starts {2, 3, 4} (0-based).
  const auto starts = disjoint_cluster_starts(fig1b_gates());
  EXPECT_EQ(starts, (std::vector<std::size_t>{2, 3, 4}));
}

TEST(Layers, DisjointClustersAllDisjoint) {
  const std::vector<Gate> gates{Gate::cnot(0, 1), Gate::cnot(2, 3), Gate::cnot(4, 5)};
  EXPECT_TRUE(disjoint_cluster_starts(gates).empty());
}

TEST(Layers, DisjointClustersAllOverlapping) {
  const std::vector<Gate> gates{Gate::cnot(0, 1), Gate::cnot(1, 2), Gate::cnot(2, 0)};
  EXPECT_EQ(disjoint_cluster_starts(gates), (std::vector<std::size_t>{1, 2}));
}

TEST(Layers, BoundedQubitClustersMatchExample10) {
  // Paper Example 10 (qubit triangle): G' = {g2} (1-based) = starts {1}.
  const auto starts = bounded_qubit_cluster_starts(fig1b_gates(), 3);
  EXPECT_EQ(starts, (std::vector<std::size_t>{1}));
}

TEST(Layers, BoundedQubitClustersSingleClusterWhenSmall) {
  const std::vector<Gate> gates{Gate::cnot(0, 1), Gate::cnot(1, 2), Gate::cnot(0, 2)};
  EXPECT_TRUE(bounded_qubit_cluster_starts(gates, 3).empty());
}

TEST(Layers, BoundedQubitClustersRejectsTinyBound) {
  EXPECT_THROW(bounded_qubit_cluster_starts(fig1b_gates(), 1), std::invalid_argument);
}

TEST(Layers, BoundedVersusDisjointAreDifferentGroupings) {
  const auto gates = fig1b_gates();
  EXPECT_NE(disjoint_cluster_starts(gates), bounded_qubit_cluster_starts(gates, 3));
}

}  // namespace
}  // namespace qxmap
