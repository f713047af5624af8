/// Ablation bench for the reasoning-engine choice (Sec. 3.1): the paper's
/// Z3 backend vs. this library's own CDCL + descending-bound optimiser on
/// identical symbolic instances.

#include <benchmark/benchmark.h>

#include "arch/architectures.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "exact/exact_mapper.hpp"
#include "reason/cdcl_engine.hpp"

namespace {

using namespace qxmap;

void BM_Engine(benchmark::State& state) {
  const auto kind =
      state.range(0) == 0 ? reason::EngineKind::Z3 : reason::EngineKind::Cdcl;
  const int num_cnots = static_cast<int>(state.range(1));
  const Circuit circuit = bench::random_circuit(4, 0, num_cnots, 42, "engine-bench");
  exact::ExactOptions opt;
  opt.engine = kind;
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(30000);
  opt.verify = false;
  long long cost = -1;
  for (auto _ : state) {
    const auto res = exact::map_exact(circuit, arch::ibm_qx4(), opt);
    cost = res.cost_f;
    benchmark::DoNotOptimize(res);
  }
  state.counters["F"] = static_cast<double>(cost);
  state.SetLabel(std::string(kind == reason::EngineKind::Z3 ? "z3" : "cdcl") + "/cx" +
                 std::to_string(num_cnots));
}
BENCHMARK(BM_Engine)
    ->ArgsProduct({{0, 1}, {4, 6, 8}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_CdclOptimizationMode(benchmark::State& state) {
  // Sec. 3.3 ablation on raw weighted instances: descending-linear
  // tightening vs. binary search with assumption probes on one incremental
  // solver.
  const auto mode = state.range(0) == 0 ? reason::OptimizationMode::DescendingLinear
                                        : reason::OptimizationMode::BinarySearch;
  const int num_vars = static_cast<int>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    reason::CdclEngine engine;
    engine.set_optimization_mode(mode);
    for (int v = 0; v < num_vars; ++v) engine.new_bool();
    for (int c = 0; c < 2 * num_vars; ++c) {
      std::vector<int> clause;
      for (int k = 0; k < 3; ++k) {
        const int var = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_vars))) + 1;
        clause.push_back(rng.next_bool(0.5) ? var : -var);
      }
      engine.add_clause(clause);
    }
    for (int v = 0; v < num_vars; ++v) {
      if (rng.next_bool(0.5)) engine.add_cost(v, 4 + (v % 4) * 7);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.minimize(std::chrono::milliseconds(30000)));
    state.PauseTiming();
    // Solver health counters (docs/benchmarks.md) from the last minimize.
    const sat::SolverStats& ss = engine.solver_stats();
    state.counters["restarts"] = static_cast<double>(ss.restarts);
    state.counters["learnt_del"] = static_cast<double>(ss.learnt_deleted);
    state.counters["avg_lbd"] =
        ss.learned > 0 ? static_cast<double>(ss.lbd_sum) / static_cast<double>(ss.learned) : 0.0;
    state.ResumeTiming();
  }
  state.SetLabel(mode == reason::OptimizationMode::DescendingLinear ? "descending" : "binary");
}
BENCHMARK(BM_CdclOptimizationMode)
    ->ArgsProduct({{0, 1}, {30, 60}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
