// Golden routing pins: every mapper's output on fixed inputs, pinned across
// code changes. The values were recorded before the mappers were rebuilt on
// the shared routing core (exact/router.hpp) — the heavy-hex pins before
// SABRE and layer-weight switched to incremental candidate scoring — and
// must never be edited to make a refactor pass: a routing refactor is only
// correct when it leaves them bit-identical. A deliberate change of a search
// policy is the one reason to re-record them, and says so in its own commit.

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
/// Heavy-hex inputs for the SWAP-scoring loops: hex127 at full occupancy
/// (large fronts), and hex65 with 40 logical qubits, so candidate SWAPs
/// also move a logical qubit onto an empty physical one.
Circuit hex127_su4() { return bench::su4_random_circuit(127, 2, 5, "golden-hex127"); }
Circuit hex65_partial_su4() { return bench::su4_random_circuit(40, 3, 5, "golden-hex65-40"); }

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

TEST(RoutingGolden, HeavyHexSabre) {
  expect_pin(heuristic::map_sabre(hex127_su4(), arch::ibm_hex127()),
             Pin{"c127:534a53317085d166", 230, 0,
                 {2, 42, 20, 22, 9, 34, 6, 7, 56, 17, 4, 80, 10, 54, 47, 40, 33, 36, 14, 50, 59, 30,
                  119, 27, 52, 1, 0, 65, 89, 24, 73, 64, 31, 21, 48, 28, 63, 58, 39, 72, 96, 18,
                  114, 5, 8, 68, 93, 115, 99, 69, 86, 26, 71, 94, 19, 95, 25, 90, 81, 16, 78, 60,
                  126, 82, 12, 62, 88, 107, 70, 75, 85, 79, 29, 121, 23, 45, 102, 13, 35, 51, 41,
                  11, 98, 37, 49, 105, 104, 3, 55, 112, 15, 118, 117, 111, 44, 97, 83, 38, 57, 116,
                  61, 43, 110, 109, 84, 46, 74, 32, 124, 76, 91, 101, 92, 66, 108, 53, 100, 77, 120,
                  113, 123, 67, 87, 106, 122, 103, 125},
                 {2, 76, 38, 21, 12, 65, 3, 9, 79, 10, 15, 82, 24, 25, 46, 37, 18, 36, 14, 32, 53,
                  11, 121, 55, 52, 1, 0, 61, 88, 16, 83, 42, 17, 28, 49, 8, 84, 57, 60, 34, 109, 33,
                  96, 7, 6, 50, 107, 115, 118, 74, 87, 26, 58, 75, 19, 95, 4, 94, 85, 23, 97, 59,
                  126, 81, 35, 80, 89, 106, 68, 90, 44, 99, 51, 120, 41, 62, 92, 13, 64, 69, 43, 29,
                  100, 56, 30, 105, 104, 45, 54, 108, 5, 78, 116, 111, 22, 98, 101, 20, 77, 117, 73,
                  47, 110, 114, 66, 27, 48, 31, 124, 40, 71, 102, 72, 70, 93, 63, 119, 39, 122, 113,
                  123, 67, 112, 86, 91, 103, 125}});
  expect_pin(heuristic::map_sabre(hex65_partial_su4(), arch::ibm_hex65()),
             Pin{"c65:18e6565d679846fc", 134, 0,
                 {19, 8, 6, 3, 16, 1, 29, 39, 30, 21, 14, 37, 5, 25, 15, 26, 27, 12, 20, 9, 4, 0,
                  23, 34, 22, 2, 32, 38, 24, 33, 13, 28, 10, 18, 17, 36, 7, 11, 31, 35},
                 {0, 19, 5, 21, 34, 3, 30, 25, 12, 8, 28, 23, 2, 29, 38, 36, 39, 7, 16, 20, 9, 14,
                  26, 22, 31, 6, 11, 27, 24, 18, 17, 15, 1, 33, 13, 37, 4, 32, 10, 35}});
}

TEST(RoutingGolden, HeavyHexLayerWeight) {
  expect_pin(heuristic::map_layer_weight(hex127_su4(), arch::ibm_hex127()),
             Pin{"c127:3f0807555450171c", 1199, 0,
                 {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                  23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42,
                  43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62,
                  63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82,
                  83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100, 101, 102,
                  103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118,
                  119, 120, 121, 122, 123, 124, 125, 126},
                 {16, 84, 35, 77, 27, 23, 22, 5, 14, 6, 90, 41, 10, 11, 3, 15, 33, 29, 20, 50, 70,
                  31, 98, 8, 4, 26, 19, 101, 89, 69, 122, 44, 30, 43, 28, 63, 12, 40, 102, 9, 64,
                  91, 79, 62, 57, 49, 66, 61, 110, 54, 109, 1, 52, 85, 71, 65, 21, 99, 119, 0, 78,
                  37, 86, 42, 92, 55, 46, 107, 7, 100, 76, 60, 48, 104, 74, 114, 111, 25, 117, 36,
                  75, 34, 96, 38, 68, 108, 112, 93, 88, 73, 56, 67, 72, 106, 94, 53, 95, 39, 17,
                  118, 82, 83, 123, 59, 24, 45, 2, 51, 125, 47, 13, 121, 115, 32, 113, 81, 103, 80,
                  97, 58, 124, 116, 105, 120, 18, 126, 87}});
  expect_pin(heuristic::map_layer_weight(hex65_partial_su4(), arch::ibm_hex65()),
             Pin{"c65:2277875a009efe0d", 283, 0,
                 {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                  23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39},
                 {28, 8, 19, 12, 1, 11, 24, 9, 3, 30, 10, 25, 21, 13, 16, 34, 14, 7, 38, 20, 33, 5,
                  26, 32, 0, 6, 18, 15, 27, 39, 31, 4, 22, 37, 2, 23, 17, 36, 29, 35}});
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
             Pin{"c5:fa2a485fc0c350cf", 1, 2,
                 {3, 0, 1, 4, 2},
                 {3, 0, 1, 2, 4}});
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

/// The same inputs through the default engine, the layout DP, whose
/// tie-break (exact/reference_search.hpp) fixes the route.
exact::ExactOptions dp_options() {
  exact::ExactOptions opt = exact_options();
  opt.engine = reason::EngineKind::Dp;
  return opt;
}

TEST(RoutingGolden, ExactDpFullArchitecture) {
  const auto res = exact::map_exact(qx4_five_qubit(), arch::ibm_qx4(), dp_options());
  ASSERT_EQ(res.status, reason::Status::Optimal);
  expect_pin(res,
             Pin{"c5:fa2a485fc0c350cf", 1, 2,
                 {3, 0, 1, 4, 2},
                 {3, 0, 1, 2, 4}});
}

TEST(RoutingGolden, ExactDpSubsetsAndReconstruct) {
  exact::ExactOptions opt = dp_options();
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
