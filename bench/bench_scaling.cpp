/// Scaling behaviour of the exact method with circuit size — the
/// observation motivating Sec. 4's performance improvements: runtime grows
/// steeply with the number of CNOTs because the search space is
/// 2^(n·m·|G|). Sweeps #CNOTs for the unrestricted method and for the
/// strategy-restricted variants, plus the DP certifier as a yardstick.

#include <benchmark/benchmark.h>

#include "arch/architectures.hpp"
#include "bench_circuits/generators.hpp"
#include "exact/exact_mapper.hpp"
#include "exact/reference_search.hpp"
#include "heuristic/layer_weight_mapper.hpp"

namespace {

using namespace qxmap;

void BM_ExactScaling(benchmark::State& state) {
  const int num_cnots = static_cast<int>(state.range(0));
  const Circuit circuit = bench::random_circuit(4, 0, num_cnots, 7, "scaling");
  exact::ExactOptions opt;
  opt.engine = reason::EngineKind::Z3;
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(60000);
  opt.verify = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::map_exact(circuit, arch::ibm_qx4(), opt));
  }
}
BENCHMARK(BM_ExactScaling)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ExactScalingOddGates(benchmark::State& state) {
  const int num_cnots = static_cast<int>(state.range(0));
  const Circuit circuit = bench::random_circuit(4, 0, num_cnots, 7, "scaling");
  exact::ExactOptions opt;
  opt.engine = reason::EngineKind::Z3;
  opt.strategy = exact::PermutationStrategy::OddGates;
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(60000);
  opt.verify = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::map_exact(circuit, arch::ibm_qx4(), opt));
  }
}
BENCHMARK(BM_ExactScalingOddGates)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ReferenceDpScaling(benchmark::State& state) {
  const int num_cnots = static_cast<int>(state.range(0));
  const Circuit circuit = bench::random_circuit(4, 0, num_cnots, 7, "scaling");
  std::vector<Gate> cnots;
  for (const auto& g : circuit) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  std::vector<std::size_t> points;
  for (std::size_t k = 1; k < cnots.size(); ++k) points.push_back(k);
  const auto cm = arch::ibm_qx4();
  exact::CostModel costs;
  costs.swap_cost = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exact::minimal_cost_reference(cnots, 4, cm, points, costs));
  }
}
BENCHMARK(BM_ReferenceDpScaling)->Arg(2)->Arg(6)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond);

// The scenario axis the exact method cannot reach: SU(4) stress circuits on
// the heavy-hex built-ins, routed by the layer-weight heuristic. Arg selects
// the architecture (27/65/127 qubits); depth is fixed at 4 SU(4) layers so
// the CNOT count scales linearly with the qubit count.
void BM_LayerWeightHeavyHex(benchmark::State& state) {
  const arch::CouplingMap cm = [&] {
    switch (state.range(0)) {
      case 27: return arch::ibm_hex27();
      case 65: return arch::ibm_hex65();
      default: return arch::ibm_hex127();
    }
  }();
  const Circuit circuit =
      bench::su4_random_circuit(cm.num_physical(), 4, 7, "su4_" + cm.name());
  heuristic::LayerWeightOptions opt;
  opt.verify = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristic::map_layer_weight(circuit, cm, opt));
  }
}
BENCHMARK(BM_LayerWeightHeavyHex)->Arg(27)->Arg(65)->Arg(127)
    ->Unit(benchmark::kMillisecond);

}  // namespace
