/// The exact mapper's default engine, EngineKind::Dp: the layout DP of
/// exact/reference_search.hpp run through map_exact. Optimality on the
/// Table-1 rows the SAT budget leaves open, the deadline contract, the
/// per-instance spans, and the route the DP emits. Next to the Dp spans,
/// the formula size the SAT path's encode span reports.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/encoder.hpp"
#include "exact/exact_mapper.hpp"
#include "exact/reference_search.hpp"
#include "exact/strategies.hpp"
#include "exact/swap_synthesis.hpp"
#include "metric_delta.hpp"
#include "obs/trace.hpp"
#include "reason/cdcl_engine.hpp"

namespace qxmap {
namespace {

using exact::ExactOptions;
using exact::map_exact;
using reason::EngineKind;
using reason::Status;

ExactOptions dp_options() {
  ExactOptions opt;
  opt.engine = EngineKind::Dp;
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(60000);
  return opt;
}

struct OpenRow {
  const char* name;
  long long total;   ///< mapped gate count, BENCH_table1.json `cost` units
  long long cost_f;  ///< added gates
};

TEST(DpEngine, ProvesTheRowsTheSatBudgetLeavesOpen) {
  // BENCH_table1.json records these four rows unproven (3 s CDCL); the DP
  // proves their optima.
  for (const OpenRow& row : {OpenRow{"4gt13_92", 113, 47}, OpenRow{"alu-v3_34", 99, 47},
                             OpenRow{"qe_q_4", 119, 48}, OpenRow{"qe_q_5", 182, 75}}) {
    const Circuit c = bench::table1_benchmark(row.name).build();
    const auto res = map_exact(c, arch::ibm_qx4(), dp_options());
    ASSERT_EQ(res.status, Status::Optimal) << row.name;
    EXPECT_EQ(res.engine_name, "dp");
    EXPECT_EQ(static_cast<long long>(res.mapped.size()), row.total) << row.name;
    EXPECT_EQ(res.cost_f, row.cost_f) << row.name;
    EXPECT_TRUE(res.verified) << row.name << ": " << res.verify_message;
    EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4())) << row.name;
  }
}

TEST(DpEngine, IsTheDefaultEngine) {
  const Circuit c = bench::paper_example_circuit();
  // The DP shares no bound, so it neither polls nor tightens one.
  const testutil::CounterDelta polls("qxmap_engine_bound_polls_total");
  const testutil::CounterDelta tightenings("qxmap_engine_bound_tightenings_total");
  const auto res = map_exact(c, arch::ibm_qx4());
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.engine_name, "dp");
  EXPECT_EQ(res.cost_f, 4);
  EXPECT_EQ(polls(), 0u);
  EXPECT_EQ(tightenings(), 0u);
}

TEST(DpEngine, TinyBudgetReturnsPromptlyWithoutACost) {
  // 8 qubits on an 8-qubit line: 8! placements per gate, far more than a
  // millisecond of work.
  const Circuit c = bench::random_cnot_circuit(8, 40, 5, "dp-budget");
  ExactOptions opt;
  opt.engine = EngineKind::Dp;
  opt.budget = std::chrono::milliseconds(1);
  const auto start = std::chrono::steady_clock::now();
  const auto res = map_exact(c, arch::linear(8), opt);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(res.status, Status::Unknown);
  EXPECT_EQ(res.mapped.size(), 0u);
  EXPECT_EQ(res.cost_f, 0);
  EXPECT_EQ(res.objective_cost, 0);
  EXPECT_TRUE(res.initial_layout.empty());
  EXPECT_LT(wall_s, 1.0);
}

TEST(DpEngine, SearchReportsUnknownPastTheDeadline) {
  const Circuit c = bench::random_cnot_circuit(4, 12, 3, "dp-deadline");
  std::vector<Gate> cnots(c.begin(), c.end());
  std::vector<std::size_t> points;
  for (std::size_t k = 1; k < cnots.size(); ++k) points.push_back(k);
  exact::CostModel costs;
  costs.swap_cost = 7;
  const auto route = exact::search_layouts(cnots, 4, arch::ibm_qx4(), points, costs,
                                           std::chrono::steady_clock::now());
  EXPECT_EQ(route.status, Status::Unknown);
  EXPECT_EQ(route.cost, 0);
  EXPECT_TRUE(route.initial.empty());
  EXPECT_TRUE(route.swaps.empty());
}

TEST(DpEngine, RouteReplaysToItsCost) {
  // The route's SWAPs are coupled pairs, the gates execute at the walked
  // placements, and the insertions add up to the reported cost.
  const auto cm = arch::ibm_qx4();
  const Circuit c = bench::random_cnot_circuit(5, 14, 21, "dp-route");
  std::vector<Gate> cnots(c.begin(), c.end());
  std::vector<std::size_t> points;
  for (std::size_t k = 1; k < cnots.size(); ++k) points.push_back(k);
  const exact::CostModel costs = exact::CostModel{}.resolved(cm);
  const auto route = exact::search_layouts(cnots, 5, cm, points, costs);
  ASSERT_EQ(route.status, Status::Optimal);
  ASSERT_EQ(route.swaps.size(), cnots.size());
  EXPECT_TRUE(route.swaps[0].empty());
  std::vector<int> layout = route.initial;
  long long cost = 0;
  for (std::size_t k = 0; k < cnots.size(); ++k) {
    for (const auto& [a, b] : route.swaps[k]) {
      ASSERT_TRUE(cm.coupled(a, b));
      for (int& p : layout) p = p == a ? b : p == b ? a : p;
      cost += costs.swap_cost;
    }
    const int pc = layout[static_cast<std::size_t>(cnots[k].control)];
    const int pt = layout[static_cast<std::size_t>(cnots[k].target)];
    ASSERT_TRUE(cm.coupled(pc, pt)) << "gate " << k;
    if (!cm.allows(pc, pt)) cost += costs.reverse_cost;
  }
  EXPECT_EQ(cost, route.cost);
  EXPECT_EQ(route.cost, exact::minimal_cost_reference(cnots, 5, cm, points, costs).cost_f);
}

TEST(DpEngine, EmitsOneSolveSpanPerInstanceAndNoSatPhases) {
  auto& recorder = obs::TraceRecorder::instance();
  const bool was_enabled = obs::TraceRecorder::enabled();
  obs::TraceRecorder::set_enabled(true);
  recorder.clear();
  const Circuit c = bench::table1_benchmark("ham3_102").build();
  ExactOptions opt = dp_options();
  opt.num_threads = 1;
  const auto res = map_exact(c, arch::ibm_qx4(), opt);
  const auto events = recorder.snapshot();
  obs::TraceRecorder::set_enabled(was_enabled);
  recorder.clear();

  ASSERT_EQ(res.status, Status::Optimal);
  std::set<std::string> names;
  int solves = 0;
  for (const auto& e : events) {
    names.insert(e.name);
    if (e.name != "exact.solve") continue;
    ++solves;
    bool tagged = false;
    for (const auto& [key, value] : e.attrs) tagged = tagged || (key == "engine" && value == "dp");
    EXPECT_TRUE(tagged);
  }
  EXPECT_EQ(solves, res.instances_solved);
  for (const char* phase : {"exact.map", "exact.subsets", "exact.reconstruct", "exact.verify"}) {
    EXPECT_TRUE(names.contains(phase)) << phase;
  }
  for (const char* sat_only : {"exact.warm_start", "exact.prefix", "exact.encode",
                               "exact.shard", "exact.canonical_resolve"}) {
    EXPECT_FALSE(names.contains(sat_only)) << sat_only;
  }
}

TEST(ExactSpans, EncodeSpanCarriesTheFormulaSize) {
  // A traced CDCL run of one Table-1 row on the whole of QX4: its one
  // exact.encode span reports the variables and clauses of the formula it
  // built, which are those of an Encoding built directly from the same
  // inputs.
  const auto cm = arch::ibm_qx4();
  const Circuit circuit = bench::table1_benchmark("4gt11_82").build();
  ExactOptions opt;
  opt.engine = EngineKind::Cdcl;
  opt.num_threads = 1;
  opt.budget = std::chrono::milliseconds(60000);
  auto& recorder = obs::TraceRecorder::instance();
  const bool was_enabled = obs::TraceRecorder::enabled();
  obs::TraceRecorder::set_enabled(true);
  recorder.clear();
  const auto res = map_exact(circuit, cm, opt);
  const auto events = recorder.snapshot();
  obs::TraceRecorder::set_enabled(was_enabled);
  recorder.clear();
  ASSERT_EQ(res.status, Status::Optimal);

  std::vector<Gate> cnots;
  for (const auto& g : circuit) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  const arch::SwapCostTable table(cm);
  reason::CdclEngine engine;
  const exact::Encoding direct(engine, cnots, circuit.num_qubits(), cm, table,
                               exact::permutation_points(cnots, opt.strategy, cm),
                               opt.costs.resolved(cm));
  int spans = 0;
  for (const auto& e : events) {
    if (e.name != "exact.encode") continue;
    ++spans;
    const std::map<std::string, std::string> attrs(e.attrs.begin(), e.attrs.end());
    EXPECT_EQ(attrs.contains("vars") ? attrs.at("vars") : "",
              std::to_string(direct.num_variables()));
    EXPECT_EQ(attrs.contains("clauses") ? attrs.at("clauses") : "",
              std::to_string(direct.num_clauses()));
  }
  EXPECT_EQ(spans, 1);
}

}  // namespace
}  // namespace qxmap
