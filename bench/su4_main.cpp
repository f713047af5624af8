/// \file su4_main.cpp
/// SU(4) stress gate for the large-architecture path: generator → heavy-hex
/// coupling map → layer-weight and SABRE heuristics, end to end; and the
/// exact Sec. 4.1 subset path on the same architectures.
///
/// Usage: bench_su4 [--smoke] [--sweep] [--exact N] [--arch NAME]
///                  [--layers N] [--cnots N] [--seed N] [--budget-ms N]
///                  [--json PATH]
///   --smoke       CI mode: a seeded SU(4) instance over the full
///                 architecture (default hex27, 27 qubits) must map via the
///                 layer-weight and SABRE heuristics within --budget-ms,
///                 each with a coupling-legal mapped circuit and a
///                 GF(2)-verified routing skeleton — under BOTH cost
///                 objectives (gate_count and error_weighted); exit 1
///                 otherwise
///   --sweep       print a layer-weight vs sabre comparison table over the
///                 heavy-hex built-ins (hex27/65/127), asserting legality
///                 and verification on every row
///   --exact N     map bench::random_circuit(N, 10, --cnots, --seed) with
///                 map_exact (Dp engine, Sec. 4.1 subsets, one thread) on
///                 --arch; print the connected N-subsets, their isomorphism
///                 classes, the subsets solved, the cost and the wall time;
///                 exit 1 unless the result is Optimal and verified within
///                 --budget-ms
///   --arch NAME   architecture for --smoke and --exact (default hex27)
///   --layers N    SU(4) layers (default 3)
///   --cnots N     CNOTs of the --exact circuit (default 20)
///   --seed N      generator seed (default 7)
///   --budget-ms N smoke wall-clock budget (default 60000 — generous so the
///                 TSan matrix entry passes; the real run is milliseconds)
///   --json PATH   write the smoke rows as JSON with the shared environment
///                 meta header (bench/bench_meta.hpp: threads, Z3 on/off,
///                 build type, budget)
///
/// A numeric value that is not a whole number in range exits 2.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "arch/subsets.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_meta.hpp"
#include "common/strings.hpp"
#include "exact/exact_mapper.hpp"
#include "exact/swap_synthesis.hpp"
#include "heuristic/layer_weight_mapper.hpp"
#include "heuristic/sabre_mapper.hpp"

namespace {

using namespace qxmap;
using Clock = std::chrono::steady_clock;

struct Args {
  bool smoke = false;
  bool sweep = false;
  int exact = 0;  // --exact N: logical qubits of the exact run; 0 = off
  std::string arch = "hex27";
  int layers = 3;
  int cnots = 20;
  std::uint64_t seed = 7;
  long long budget_ms = 60000;
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("bench_su4: missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--sweep") {
      a.sweep = true;
    } else if (arg == "--exact") {
      a.exact = parse_number<int>(next(), arg, 1);
    } else if (arg == "--cnots") {
      a.cnots = parse_number<int>(next(), arg, 0);
    } else if (arg == "--arch") {
      a.arch = next();
    } else if (arg == "--layers") {
      a.layers = parse_number<int>(next(), arg, 1);
    } else if (arg == "--seed") {
      a.seed = parse_number<std::uint64_t>(next(), arg);
    } else if (arg == "--budget-ms") {
      a.budget_ms = parse_number<long long>(next(), arg, 1, bench::kMaxBudgetMs);
    } else if (arg == "--json") {
      a.json_path = next();
    } else {
      throw std::runtime_error("bench_su4: unknown argument " + arg);
    }
  }
  return a;
}

/// Maps one SU(4) instance with the heuristic `method` ("layer-weight" or
/// "sabre") and validates the result; returns false (after printing why) on
/// any violation.
bool check_instance(const Circuit& circuit, const arch::CouplingMap& cm,
                    const std::string& method, exact::CostObjective objective, double* out_ms,
                    exact::MappingResult* out = nullptr) {
  exact::CostModel costs;
  costs.objective = objective;
  const auto t0 = Clock::now();
  exact::MappingResult res;
  if (method == "sabre") {
    heuristic::SabreOptions options;
    options.costs = costs;
    res = heuristic::map_sabre(circuit, cm, options);
  } else {
    heuristic::LayerWeightOptions options;
    options.costs = costs;
    res = heuristic::map_layer_weight(circuit, cm, options);
  }
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (out_ms != nullptr) *out_ms = ms;
  bool ok = true;
  if (res.status != reason::Status::Feasible) {
    std::cout << "FAIL: " << method << " status not Feasible on " << cm.name() << "\n";
    ok = false;
  }
  if (!res.verified) {
    std::cout << "FAIL: " << method << " GF(2) skeleton verification failed on " << cm.name()
              << " (" << res.verify_message << ")\n";
    ok = false;
  }
  if (!exact::satisfies_coupling(res.mapped, cm)) {
    std::cout << "FAIL: " << method << " mapped circuit violates the coupling map of "
              << cm.name() << "\n";
    ok = false;
  }
  if (res.objective != exact::to_string(objective)) {
    std::cout << "FAIL: result reports objective '" << res.objective << "', requested '"
              << exact::to_string(objective) << "'\n";
    ok = false;
  }
  if (out != nullptr) *out = res;
  return ok;
}

int run_smoke(const Args& args) {
  const arch::CouplingMap cm = arch::by_name(args.arch);
  const Circuit circuit =
      bench::su4_random_circuit(cm.num_physical(), args.layers, args.seed,
                                "su4_" + cm.name());
  std::cout << "bench_su4 --smoke: " << circuit.size() << " gates ("
            << circuit.counts().cnot << " CNOTs), architecture " << cm.name() << " ("
            << cm.num_physical() << " qubits)\n";
  bool ok = true;
  double total_ms = 0.0;
  struct JsonRow {
    std::string method;
    std::string objective;
    int swaps = 0;
    int reversed = 0;
    long long objective_cost = 0;
    double wall_ms = 0.0;
  };
  std::vector<JsonRow> json_rows;
  for (const std::string method : {"layer-weight", "sabre"}) {
    for (const auto objective :
         {exact::CostObjective::GateCount, exact::CostObjective::ErrorWeighted}) {
      double ms = 0.0;
      exact::MappingResult res;
      ok = check_instance(circuit, cm, method, objective, &ms, &res) && ok;
      total_ms += ms;
      std::cout << "  " << pad_right(method, 13) << pad_right(exact::to_string(objective), 15)
                << " swaps " << pad_left(std::to_string(res.swaps_inserted), 4)
                << ", reversed " << pad_left(std::to_string(res.cnots_reversed), 4)
                << ", objective_cost " << pad_left(std::to_string(res.objective_cost), 7)
                << ", " << format_fixed(ms, 1) << " ms\n";
      json_rows.push_back({method, exact::to_string(objective), res.swaps_inserted,
                           res.cnots_reversed, res.objective_cost, ms});
    }
  }
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::cout << "FAIL: cannot open " << args.json_path << " for writing\n";
      ok = false;
    } else {
      out << "{\n"
          << "  \"schema\": \"qxmap-su4-smoke-v2\",\n"
          << "  \"arch\": \"" << cm.name() << "\",\n"
          << "  \"layers\": " << args.layers << ",\n"
          << "  \"seed\": " << args.seed << ",\n";
      // The heuristics run on the calling thread only.
      bench::write_meta_json(out, /*threads=*/1, args.budget_ms);
      out << ",\n  \"rows\": [\n";
      for (std::size_t i = 0; i < json_rows.size(); ++i) {
        const auto& r = json_rows[i];
        out << "    {\"method\": \"" << r.method << "\", \"objective\": \"" << r.objective
            << "\", \"swaps\": " << r.swaps
            << ", \"reversed\": " << r.reversed << ", \"objective_cost\": " << r.objective_cost
            << ", \"wall_ms\": " << format_fixed(r.wall_ms, 1) << '}'
            << (i + 1 < json_rows.size() ? "," : "") << '\n';
      }
      out << "  ]\n}\n";
      std::cout << "wrote " << args.json_path << " (" << json_rows.size() << " rows)\n";
    }
  }
  if (total_ms > static_cast<double>(args.budget_ms)) {
    std::cout << "FAIL: " << format_fixed(total_ms, 1) << " ms exceeds the --budget-ms "
              << args.budget_ms << "\n";
    ok = false;
  }
  std::cout << (ok ? "OK" : "FAILED") << ": generator + layer-weight + sabre on " << cm.name()
            << " in " << format_fixed(total_ms, 1) << " ms (budget " << args.budget_ms
            << " ms)\n";
  return ok ? 0 : 1;
}

int run_sweep(const Args& args) {
  bool ok = true;
  std::cout << pad_right("arch", 10) << pad_left("layers", 7) << pad_left("cnots", 7)
            << pad_left("lw swaps", 9) << pad_left("lw ms", 8) << pad_left("sabre swaps", 12)
            << pad_left("sabre ms", 9) << '\n';
  for (const std::string& name : {std::string("hex27"), std::string("hex65"),
                                  std::string("hex127")}) {
    const arch::CouplingMap cm = arch::by_name(name);
    for (const int layers : {2, 4}) {
      const Circuit circuit = bench::su4_random_circuit(cm.num_physical(), layers, args.seed,
                                                        "su4_" + cm.name());
      double lw_ms = 0.0;
      exact::MappingResult lw;
      ok = check_instance(circuit, cm, "layer-weight", exact::CostObjective::GateCount, &lw_ms,
                          &lw) &&
           ok;
      double sb_ms = 0.0;
      exact::MappingResult sb;
      ok = check_instance(circuit, cm, "sabre", exact::CostObjective::GateCount, &sb_ms, &sb) &&
           ok;
      std::cout << pad_right(name, 10) << pad_left(std::to_string(layers), 7)
                << pad_left(std::to_string(circuit.counts().cnot), 7)
                << pad_left(std::to_string(lw.swaps_inserted), 9)
                << pad_left(format_fixed(lw_ms, 1), 8)
                << pad_left(std::to_string(sb.swaps_inserted), 12)
                << pad_left(format_fixed(sb_ms, 1), 9) << '\n';
    }
  }
  std::cout << (ok ? "OK" : "FAILED") << '\n';
  return ok ? 0 : 1;
}

int run_exact(const Args& args) {
  const arch::CouplingMap cm = arch::by_name(args.arch);
  const Circuit circuit =
      bench::random_circuit(args.exact, 10, args.cnots, args.seed, "exact_" + cm.name());
  const auto subsets = arch::connected_subsets(cm, args.exact);
  const arch::SubsetClasses classes = arch::subset_classes(cm, subsets);
  exact::ExactOptions options;
  options.engine = reason::EngineKind::Dp;
  options.use_subsets = true;
  options.num_threads = 1;
  options.budget = std::chrono::milliseconds(args.budget_ms);
  const auto t0 = Clock::now();
  const exact::MappingResult res = exact::map_exact(circuit, cm, options);
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::cout << "bench_su4 --exact " << args.exact << ": " << args.cnots << " CNOTs on "
            << cm.name() << ", subsets " << subsets.size() << ", classes " << classes.classes
            << ", solved " << res.instances_solved << " of " << classes.solve.size()
            << ", status " << reason::to_string(res.status) << ", cost " << res.cost_f << ", "
            << format_fixed(ms, 1) << " ms\n";
  const bool ok = res.status == reason::Status::Optimal && res.verified &&
                  ms <= static_cast<double>(args.budget_ms);
  if (!res.verified) std::cout << "FAIL: not verified (" << res.verify_message << ")\n";
  std::cout << (ok ? "OK" : "FAILED") << " (budget " << args.budget_ms << " ms)\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.exact > 0) return run_exact(args);
    if (args.sweep) return run_sweep(args);
    if (args.smoke) return run_smoke(args);
    // Default: one verbose smoke run.
    return run_smoke(args);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
}
