#include "arch/distances.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "arch/architectures.hpp"

namespace qxmap {
namespace {

TEST(Distances, HopsOnQx4) {
  const arch::DistanceMatrix d(arch::ibm_qx4());
  EXPECT_EQ(d.hops(0, 0), 0);
  EXPECT_EQ(d.hops(0, 1), 1);
  EXPECT_EQ(d.hops(0, 2), 1);
  EXPECT_EQ(d.hops(0, 3), 2);
  EXPECT_EQ(d.hops(0, 4), 2);
  EXPECT_EQ(d.hops(1, 4), 2);
  EXPECT_EQ(d.hops(3, 4), 1);
}

TEST(Distances, HopsSymmetric) {
  const auto cm = arch::ibm_qx5();
  const arch::DistanceMatrix d(cm);
  for (int a = 0; a < cm.num_physical(); ++a) {
    for (int b = 0; b < cm.num_physical(); ++b) {
      EXPECT_EQ(d.hops(a, b), d.hops(b, a));
    }
  }
}

TEST(Distances, HopsIgnoreEdgeDirection) {
  // QX4 is directed ((1,0) exists, (0,1) does not); hop counts are taken on
  // the undirected graph, so adding every reverse edge changes none of them.
  const auto directed = arch::ibm_qx4();
  std::vector<std::pair<int, int>> both;
  for (const auto& [a, b] : directed.undirected_edges()) {
    both.emplace_back(a, b);
    both.emplace_back(b, a);
  }
  const arch::CouplingMap bidirected(directed.num_physical(), both);
  const arch::DistanceMatrix dd(directed);
  const arch::DistanceMatrix db(bidirected);
  EXPECT_EQ(dd.hops(1, 0), 1);
  EXPECT_EQ(dd.hops(0, 1), 1);
  for (int a = 0; a < directed.num_physical(); ++a) {
    for (int b = 0; b < directed.num_physical(); ++b) {
      EXPECT_EQ(dd.hops(a, b), db.hops(a, b)) << a << "," << b;
    }
  }
}

TEST(Distances, DisconnectedPairsGetSentinel) {
  const arch::CouplingMap split(4, {{0, 1}, {2, 3}});
  const arch::DistanceMatrix d(split);
  EXPECT_GE(d.hops(0, 2), 1000);
}

TEST(Distances, Validation) {
  const arch::DistanceMatrix d(arch::ibm_qx4());
  EXPECT_THROW((void)d.hops(-1, 0), std::out_of_range);
  EXPECT_THROW((void)d.hops(0, 9), std::out_of_range);
}

TEST(Distances, TriangleInequalityOnHops) {
  const auto cm = arch::ibm_qx5();
  const arch::DistanceMatrix d(cm);
  const int m = cm.num_physical();
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < m; ++b) {
      for (int c = 0; c < m; ++c) {
        EXPECT_LE(d.hops(a, c), d.hops(a, b) + d.hops(b, c));
      }
    }
  }
}

}  // namespace
}  // namespace qxmap
