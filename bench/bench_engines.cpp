/// Ablation bench for the reasoning-engine choice (Sec. 3.1): the paper's
/// Z3 backend vs. this library's own CDCL + binary-search optimiser on
/// identical symbolic instances.

#include <benchmark/benchmark.h>

#include "arch/architectures.hpp"
#include "bench_circuits/generators.hpp"
#include "exact/exact_mapper.hpp"

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

}  // namespace
