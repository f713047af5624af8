// Golden routing pins: every mapper's output on fixed inputs, pinned across
// code changes. The values were recorded before the mappers were rebuilt on
// the shared routing core (exact/router.hpp) and must never be edited to
// make a refactor pass — a routing refactor is only correct when it leaves
// them bit-identical. A deliberate change of a search policy is the one
// reason to re-record them, and says so in its own commit.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/exact_mapper.hpp"
#include "heuristic/astar_mapper.hpp"
#include "heuristic/layer_weight_mapper.hpp"
#include "heuristic/sabre_mapper.hpp"
#include "heuristic/stochastic_swap.hpp"
#include "ir/fingerprint.hpp"

namespace qxmap {
namespace {

struct Pin {
  std::string fingerprint;
  int swaps;
  int reversed;
  std::vector<int> initial;
  std::vector<int> final_layout;
};

std::string layout_text(const std::vector<int>& v) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "}";
  return os.str();
}

/// Compares `res` to `pin`; on mismatch prints the observed pin in
/// initializer form so a deliberate re-recording is a copy-paste.
void expect_pin(const exact::MappingResult& res, const Pin& pin) {
  const std::string fp = fingerprint_string(res.mapped);
  const bool same = fp == pin.fingerprint && res.swaps_inserted == pin.swaps &&
                    res.cnots_reversed == pin.reversed && res.initial_layout == pin.initial &&
                    res.final_layout == pin.final_layout;
  EXPECT_TRUE(same) << "observed: {\"" << fp << "\", " << res.swaps_inserted << ", "
                    << res.cnots_reversed << ", " << layout_text(res.initial_layout) << ", "
                    << layout_text(res.final_layout) << "}";
  EXPECT_TRUE(res.verified) << res.verify_message;
}

Circuit row(const char* name) { return bench::table1_benchmark(name).build(); }

/// The QX4 Table-1 rows and the Tokyo random circuit every heuristic is
/// pinned on.
Circuit qx4_four_qubit() { return row("rd32-v0_66"); }
Circuit qx4_five_qubit() { return row("4mod5-v0_20"); }
Circuit tokyo_random() { return bench::random_circuit(10, 20, 40, 11, "golden-tokyo"); }
Circuit hex27_su4() { return bench::su4_random_circuit(27, 2, 5, "golden-hex27"); }

TEST(RoutingGolden, Sabre) {
  const auto qx4 = arch::ibm_qx4();
  expect_pin(heuristic::map_sabre(qx4_four_qubit(), qx4),
             Pin{"c5:7839fb771c5371f0", 2, 9,
                 {3, 1, 2, 0},
                 {2, 1, 0, 3}});
  expect_pin(heuristic::map_sabre(qx4_five_qubit(), qx4),
             Pin{"c5:9a05a44d9d18e3ab", 1, 5,
                 {4, 1, 0, 3, 2},
                 {4, 2, 0, 3, 1}});
  expect_pin(heuristic::map_sabre(tokyo_random(), arch::ibm_tokyo()),
             Pin{"c20:2f1acd0c172fd39f", 19, 0,
                 {8, 0, 1, 9, 2, 3, 5, 4, 7, 6},
                 {4, 6, 0, 1, 2, 9, 5, 7, 3, 8}});
  expect_pin(heuristic::map_sabre(hex27_su4(), arch::ibm_hex27()),
             Pin{"c27:bc692713e1d136da", 17, 0,
                 {0, 9, 2, 6, 19, 5, 7, 15, 24, 14, 22, 12, 1, 8, 10, 11, 23, 17, 4, 13, 20, 18, 21,
                  26, 16, 3, 25},
                 {1, 9, 2, 6, 14, 5, 7, 15, 23, 8, 25, 16, 0, 12, 4, 11, 24, 21, 10, 13, 20, 17, 18,
                  26, 22, 3, 19}});
}

TEST(RoutingGolden, LayerWeight) {
  const auto qx4 = arch::ibm_qx4();
  expect_pin(heuristic::map_layer_weight(qx4_four_qubit(), qx4),
             Pin{"c5:3ec5066567ba88f7", 5, 9,
                 {0, 1, 2, 3},
                 {3, 2, 0, 1}});
  expect_pin(heuristic::map_layer_weight(qx4_five_qubit(), qx4),
             Pin{"c5:f8b61f87db1ca9f3", 4, 6,
                 {0, 1, 2, 3, 4},
                 {1, 2, 0, 3, 4}});
  expect_pin(heuristic::map_layer_weight(tokyo_random(), arch::ibm_tokyo()),
             Pin{"c20:e795746bc8d57a9d", 27, 0,
                 {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
                 {1, 0, 8, 3, 9, 2, 4, 6, 7, 5}});
  expect_pin(heuristic::map_layer_weight(hex27_su4(), arch::ibm_hex27()),
             Pin{"c27:6c640a3b3f8b7151", 122, 0,
                 {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                  23, 24, 25, 26},
                 {10, 12, 11, 0, 6, 22, 1, 18, 9, 15, 26, 13, 8, 3, 7, 4, 25, 5, 2, 21, 20, 23, 24,
                  17, 19, 16, 14}});
}

TEST(RoutingGolden, StochasticBestOfFive) {
  heuristic::StochasticSwapOptions opt;
  opt.runs = 5;
  const auto qx4 = arch::ibm_qx4();
  expect_pin(heuristic::map_stochastic_swap(qx4_four_qubit(), qx4, opt),
             Pin{"c5:10af2ca327b665e6", 3, 4,
                 {0, 1, 2, 3},
                 {2, 1, 0, 3}});
  expect_pin(heuristic::map_stochastic_swap(qx4_five_qubit(), qx4, opt),
             Pin{"c5:3f2ee16cfb201dff", 3, 4,
                 {0, 1, 2, 3, 4},
                 {4, 1, 0, 2, 3}});
  expect_pin(heuristic::map_stochastic_swap(tokyo_random(), arch::ibm_tokyo(), opt),
             Pin{"c20:e1657f053fc7a957", 31, 0,
                 {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
                 {5, 9, 6, 7, 1, 8, 4, 2, 11, 3}});
}

TEST(RoutingGolden, AStar) {
  const auto qx4 = arch::ibm_qx4();
  expect_pin(heuristic::map_astar(qx4_four_qubit(), qx4),
             Pin{"c5:2205c9361dd3219f", 5, 6,
                 {0, 1, 2, 3},
                 {2, 1, 0, 3}});
  expect_pin(heuristic::map_astar(qx4_five_qubit(), qx4),
             Pin{"c5:f8b61f87db1ca9f3", 4, 6,
                 {0, 1, 2, 3, 4},
                 {1, 2, 0, 3, 4}});
  expect_pin(heuristic::map_astar(tokyo_random(), arch::ibm_tokyo()),
             Pin{"c20:17003a6b5b879696", 37, 0,
                 {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
                 {0, 6, 8, 4, 9, 3, 12, 7, 1, 2}});
}

/// The exact mapper on the CDCL backend at one thread with a generous
/// budget, so every pinned solve proves optimality.
exact::ExactOptions exact_options() {
  exact::ExactOptions opt;
  opt.engine = reason::EngineKind::Cdcl;
  opt.num_threads = 1;
  opt.budget = std::chrono::milliseconds(60000);
  return opt;
}

TEST(RoutingGolden, ExactFullArchitectureWithWarmStart) {
  // n == m: one instance over all of QX4, seeded by the greedy warm start.
  const auto res = exact::map_exact(qx4_five_qubit(), arch::ibm_qx4(), exact_options());
  ASSERT_EQ(res.status, reason::Status::Optimal);
  expect_pin(res,
             Pin{"c5:779e504729bc5f98", 1, 2,
                 {4, 0, 1, 3, 2},
                 {4, 0, 1, 2, 3}});
}

TEST(RoutingGolden, ExactSubsetsAndReconstruct) {
  // n < m with Sec. 4.1 subsets: several instances, canonical re-solve,
  // then reconstruction from the winning subset's model.
  exact::ExactOptions opt = exact_options();
  opt.use_subsets = true;
  const auto res = exact::map_exact(row("ham3_102"), arch::ibm_qx4(), opt);
  ASSERT_EQ(res.status, reason::Status::Optimal);
  expect_pin(res,
             Pin{"c5:c4f8008a9103f2e8", 2, 1,
                 {2, 0, 1},
                 {2, 0, 1}});
}

}  // namespace
}  // namespace qxmap
