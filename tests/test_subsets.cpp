#include "arch/subsets.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>

#include "arch/architectures.hpp"

namespace qxmap {
namespace {

using arch::CouplingMap;

/// Brute-force reference for connected_subsets: every n-bit mask over the
/// m qubits whose undirected induced graph is connected, in lexicographic
/// subset order.
std::vector<std::vector<int>> brute_connected_subsets(const CouplingMap& cm, int n) {
  const int m = cm.num_physical();
  std::vector<std::uint64_t> nbr(static_cast<std::size_t>(m), 0);
  for (const auto& [a, b] : cm.undirected_edges()) {
    nbr[static_cast<std::size_t>(a)] |= std::uint64_t{1} << b;
    nbr[static_cast<std::size_t>(b)] |= std::uint64_t{1} << a;
  }
  std::vector<std::vector<int>> out;
  const std::uint64_t limit = std::uint64_t{1} << m;
  // Gosper's hack: every mask with exactly n bits, in increasing order.
  for (std::uint64_t mask = (std::uint64_t{1} << n) - 1; mask < limit;) {
    std::uint64_t seen = mask & (~mask + 1);  // lowest member
    for (std::uint64_t grown = 0; grown != seen;) {
      grown = seen;
      for (int q = 0; q < m; ++q) {
        if ((seen >> q) & 1) seen |= nbr[static_cast<std::size_t>(q)] & mask;
      }
    }
    if (seen == mask) {
      std::vector<int> s;
      for (int q = 0; q < m; ++q) {
        if ((mask >> q) & 1) s.push_back(q);
      }
      out.push_back(std::move(s));
    }
    const std::uint64_t low = mask & (~mask + 1);
    const std::uint64_t ripple = mask + low;
    mask = ripple | (((mask ^ ripple) >> 2) / low);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Subsets, EsuMatchesTheBruteForceFilter) {
  for (const auto& cm : {arch::ibm_qx4(), arch::ibm_qx5(), arch::ibm_tokyo(), arch::ibm_hex27()}) {
    for (int n = 1; n <= std::min(cm.num_physical(), 8); ++n) {
      EXPECT_EQ(arch::connected_subsets(cm, n), brute_connected_subsets(cm, n))
          << cm.name() << " n=" << n;
    }
  }
}

TEST(Subsets, SizeBounds) {
  EXPECT_EQ(arch::connected_subsets(arch::ibm_qx4(), 0), (std::vector<std::vector<int>>{{}}));
  EXPECT_THROW((void)arch::connected_subsets(arch::ibm_qx4(), 6), std::invalid_argument);
  EXPECT_THROW((void)arch::connected_subsets(arch::ibm_qx4(), -1), std::invalid_argument);
}

TEST(Subsets, ConnectedSubsetsQx4MatchExample9) {
  // Example 9: of the C(5,4) = 5 subsets, only the 4 containing p3
  // (0-based 2) are connected.
  const auto subs = arch::connected_subsets(arch::ibm_qx4(), 4);
  ASSERT_EQ(subs.size(), 4u);
  for (const auto& s : subs) {
    EXPECT_TRUE(std::find(s.begin(), s.end(), 2) != s.end())
        << "subset missing the cut vertex p3";
  }
}

TEST(Subsets, ConnectedSubsetsSize3OnQx4) {
  const auto subs = arch::connected_subsets(arch::ibm_qx4(), 3);
  // Qubit 2 is adjacent to every other qubit, so the connected triples are
  // exactly the C(4,2) = 6 triples containing it (edges: 01 02 12 23 24 34).
  EXPECT_EQ(subs.size(), 6u);
  for (const auto& s : subs) EXPECT_TRUE(arch::ibm_qx4().subset_connected(s));
}

TEST(Subsets, LineGraphSubsetsAreIntervals) {
  const auto subs = arch::connected_subsets(arch::linear(5), 3);
  // Connected 3-subsets of a path are exactly the 3 contiguous windows.
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(subs[1], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(subs[2], (std::vector<int>{2, 3, 4}));
}

TEST(Subsets, FullSizeSubsetIsWholeGraph) {
  const auto subs = arch::connected_subsets(arch::ibm_qx4(), 5);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0], (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- Isomorphism classes and dominance -------------------------------------

/// A 2-qubit tail hanging off a bidirected 4-cycle: 0-1-2, cycle 2-3-4-5.
CouplingMap tail_cycle6() {
  std::vector<std::pair<int, int>> edges;
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{
           {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 2}}) {
    edges.emplace_back(a, b);
    edges.emplace_back(b, a);
  }
  return CouplingMap(6, edges, "tail-cycle6");
}

/// The subsets subset_classes selects, as qubit lists.
std::vector<std::vector<int>> solved(const CouplingMap& cm, int n) {
  const auto subsets = arch::connected_subsets(cm, n);
  std::vector<std::vector<int>> out;
  for (const std::size_t i : arch::subset_classes(cm, subsets).solve) out.push_back(subsets[i]);
  return out;
}

TEST(SubsetClasses, Qx4TripletsSolveOnlyTheTriangle) {
  // The six QX4 3-subsets are the transitive triangle {0,1,2} and five
  // 2-edge paths, each of which embeds into the triangle.
  const auto cm = arch::ibm_qx4();
  EXPECT_EQ(solved(cm, 3), (std::vector<std::vector<int>>{{0, 1, 2}}));
  EXPECT_EQ(arch::subset_classes(cm, arch::connected_subsets(cm, 3)).classes, 2u);
}

TEST(SubsetClasses, Qx4QuadruplesSolveOnePerClass) {
  // A triangle with a tail into its source, and one with a tail out of its
  // sink: equal edge counts, so neither dominates the other.
  const auto cm = arch::ibm_qx4();
  EXPECT_EQ(solved(cm, 4), (std::vector<std::vector<int>>{{0, 1, 2, 3}, {0, 2, 3, 4}}));
}

TEST(SubsetClasses, TailCycleKeepsPathStarAndCycle) {
  // The 4-cycle dominates the paths, but sits at a higher index, so the
  // lowest path still runs (it would win a tie).
  EXPECT_EQ(solved(tail_cycle6(), 4),
            (std::vector<std::vector<int>>{{0, 1, 2, 3}, {1, 2, 3, 5}, {2, 3, 4, 5}}));
}

/// `subset`'s directed adjacency as an n×n string after relabelling local
/// qubit v as perm[v].
std::string relabelled(const CouplingMap& cm, const std::vector<int>& subset,
                       const std::vector<int>& perm) {
  const std::size_t n = subset.size();
  std::string s(n * n, '0');
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (cm.allows(subset[u], subset[v])) {
        s[static_cast<std::size_t>(perm[u]) * n + static_cast<std::size_t>(perm[v])] = '1';
      }
    }
  }
  return s;
}

std::vector<int> identity(std::size_t n) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  return perm;
}

/// Canonical form over all n! relabellings.
std::string brute_key(const CouplingMap& cm, const std::vector<int>& subset) {
  std::vector<int> perm = identity(subset.size());
  std::string best = relabelled(cm, subset, perm);
  while (std::next_permutation(perm.begin(), perm.end())) {
    best = std::min(best, relabelled(cm, subset, perm));
  }
  return best;
}

/// True iff some relabelling of `b`'s induced graph is an edge subset of
/// `a`'s, tried over all n! relabellings.
bool brute_embeds(const CouplingMap& cm, const std::vector<int>& b, const std::vector<int>& a) {
  const std::string target = relabelled(cm, a, identity(a.size()));
  std::vector<int> perm = identity(b.size());
  do {
    const std::string image = relabelled(cm, b, perm);
    bool inside = true;
    for (std::size_t k = 0; k < image.size() && inside; ++k) {
      inside = image[k] == '0' || target[k] == '1';
    }
    if (inside) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

TEST(SubsetClasses, MatchBruteForceClassesAndDominance) {
  // Reference: classes by the full n! canonical form; a class is skipped
  // when its first member embeds into the first member of *any* earlier
  // class with more edges (subset_classes only tests the kept ones, which
  // is equivalent because embeddings compose).
  const std::vector<std::pair<CouplingMap, std::vector<int>>> cases{
      {arch::ibm_qx4(), {2, 3, 4}},   {arch::ibm_qx2(), {2, 3, 4}},
      {arch::ibm_qx5(), {3, 4, 5, 6}}, {arch::ibm_tokyo(), {3, 4, 5}},
      {arch::ring(6), {3, 4, 5}},     {arch::grid(2, 3), {3, 4, 5}},
      {arch::linear(6), {3, 4, 5}},   {tail_cycle6(), {3, 4, 5}},
      {arch::ibm_hex27(), {4, 5, 6}},
  };
  for (const auto& [cm, sizes] : cases) {
    for (const int n : sizes) {
      const auto subsets = arch::connected_subsets(cm, n);
      std::set<std::string> keys;
      std::vector<std::size_t> firsts;
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < subsets.size(); ++i) {
        if (!keys.insert(brute_key(cm, subsets[i])).second) continue;
        const auto edges = [&](std::size_t k) {
          return cm.induced(subsets[k]).edges().size();
        };
        bool dominated = false;
        for (const std::size_t j : firsts) {
          dominated = dominated ||
                      (edges(j) > edges(i) && brute_embeds(cm, subsets[i], subsets[j]));
        }
        firsts.push_back(i);
        if (!dominated) expected.push_back(i);
      }
      const auto classes = arch::subset_classes(cm, subsets);
      EXPECT_EQ(classes.classes, keys.size()) << cm.name() << " n=" << n;
      EXPECT_EQ(classes.solve, expected) << cm.name() << " n=" << n;
    }
  }
}

TEST(SubsetClasses, ClassCountsOnLargeArchitectures) {
  // Directed-isomorphism class counts at n = 5…8.
  const std::vector<std::pair<CouplingMap, std::vector<std::size_t>>> cases{
      {arch::ibm_qx5(), {32, 69, 118, 195}},
      {arch::ibm_tokyo(), {6, 14, 28, 68}},
      {arch::ibm_hex27(), {2, 3, 5, 6}},
      {arch::ibm_hex127(), {2, 3, 5, 6}},
  };
  for (const auto& [cm, expected] : cases) {
    std::vector<std::size_t> counts;
    for (int n = 5; n <= 8; ++n) {
      counts.push_back(arch::subset_classes(cm, arch::connected_subsets(cm, n)).classes);
    }
    EXPECT_EQ(counts, expected) << cm.name();
  }
}

}  // namespace
}  // namespace qxmap
