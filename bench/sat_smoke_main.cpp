/// \file sat_smoke_main.cpp
/// SAT regression smoke gate: re-proves the `proven: true` rows of the
/// committed BENCH_table1.json at the committed budget and fails (exit 1)
/// if any of them no longer proves or any proven cost drifts. Proven costs
/// are deterministic (docs/benchmarks.md), so a drift is a correctness
/// event; a lost proof is a solver-performance regression. `--engine z3`
/// re-proves the same rows through the paper's engine, and `--engine dp`
/// checks the default exact engine against the same file.
///
/// Usage: bench_sat_smoke [--smoke] [--baseline PATH] [--budget-ms N]
///                        [--engine cdcl|z3|dp]
///   --smoke         no-op flag naming the CI mode (kept for readability)
///   --baseline PATH BENCH_table1.json to check against (default:
///                   ./BENCH_table1.json)
///   --budget-ms N   override the per-solve budget (default: the baseline
///                   file's budget_ms)
///   --engine E      cdcl (default) re-proves the proven rows through the
///                   SAT path; z3 does the same through Z3 and needs a
///                   build with QXMAP_WITH_Z3=ON. dp runs the layout DP on
///                   every row instead: each proven row must reproduce its
///                   cost exactly and every other row must prove at or
///                   below its recorded best, so the baseline's open rows
///                   are checked too
///
/// Unlike the bench_* suites this is a plain CLI (no Google-Benchmark
/// dependency) so the quick CI gate can run it from the test build.

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/exact_mapper.hpp"
#include "reason/engine.hpp"

namespace {

using namespace qxmap;

struct BaselineRow {
  std::string circuit;
  long long cost = -1;
  bool proven = false;
};

struct Baseline {
  long long budget_ms = 3000;
  std::vector<BaselineRow> rows;
};

/// Pulls `"key": <value>` out of one JSON row object. The baseline file is
/// machine-written by table1 with a fixed layout, so a targeted scan is
/// enough — no general JSON parser needed.
std::string field(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return {};
  std::size_t begin = at + needle.size();
  while (begin < obj.size() && obj[begin] == ' ') ++begin;
  std::size_t end = begin;
  if (obj[begin] == '"') {
    end = obj.find('"', begin + 1);
    return obj.substr(begin + 1, end - begin - 1);
  }
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}') ++end;
  return obj.substr(begin, end - begin);
}

Baseline load_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("bench_sat_smoke: cannot open baseline: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  Baseline b;
  const std::string budget = field(text, "budget_ms");
  if (!budget.empty()) b.budget_ms = std::stoll(budget);

  // Row objects all live inside the "rows" array; scan its {...} groups.
  std::size_t pos = text.find("\"rows\"");
  if (pos == std::string::npos) throw std::runtime_error("bench_sat_smoke: no rows in " + path);
  while ((pos = text.find('{', pos)) != std::string::npos) {
    const std::size_t close = text.find('}', pos);
    if (close == std::string::npos) break;
    const std::string obj = text.substr(pos, close - pos + 1);
    BaselineRow row;
    row.circuit = field(obj, "circuit");
    const std::string cost = field(obj, "cost");
    if (!cost.empty()) row.cost = std::stoll(cost);
    row.proven = field(obj, "proven") == "true";
    if (!row.circuit.empty()) b.rows.push_back(std::move(row));
    pos = close + 1;
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path = "BENCH_table1.json";
  long long budget_ms = -1;
  reason::EngineKind engine = reason::EngineKind::Cdcl;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") continue;
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--budget-ms" && i + 1 < argc) {
      budget_ms = std::stoll(argv[++i]);
    } else if (arg == "--engine" && i + 1 < argc) {
      try {
        engine = reason::engine_kind(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::cerr << "bench_sat_smoke: " << e.what() << '\n';
        return 2;
      }
      if (reason::running_engine(engine) != engine) {
        std::cerr << "bench_sat_smoke: --engine z3 needs a build with QXMAP_WITH_Z3=ON\n";
        return 2;
      }
    } else {
      std::cerr << "bench_sat_smoke: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  Baseline baseline;
  try {
    baseline = load_baseline(baseline_path);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (budget_ms <= 0) budget_ms = baseline.budget_ms;

  const bool dp = engine == reason::EngineKind::Dp;
  exact::ExactOptions opt;
  opt.engine = engine;
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(budget_ms);
  const std::string engine_name = reason::to_string(engine);

  int checked = 0;
  int failed = 0;
  for (const auto& row : baseline.rows) {
    // Budget-bound rows are timing-dependent under SAT; the DP proves them.
    if (!row.proven && !dp) continue;
    ++checked;
    const Circuit circuit = bench::table1_benchmark(row.circuit).build();
    const auto res = exact::map_exact(circuit, arch::ibm_qx4(), opt);
    const bool proven = res.status == reason::Status::Optimal;
    const auto cost = static_cast<long long>(res.mapped.size());
    const bool ok = proven && (row.proven ? cost == row.cost : cost <= row.cost);
    std::cout << (ok ? "  ok   " : "  FAIL ") << row.circuit << " [" << engine_name
              << "]: cost " << cost << " (baseline " << row.cost << "), "
              << (proven ? "proven" : "NOT proven") << ", "
              << static_cast<long long>(res.seconds * 1000.0) << " ms\n";
    if (!ok) ++failed;
  }

  std::cout << "bench_sat_smoke: " << (checked - failed) << "/" << checked
            << (dp ? " baseline rows proved by the DP" : " proven baseline rows re-proved")
            << " at " << budget_ms << " ms (engine " << engine_name << ")\n";
  return failed == 0 ? 0 : 1;
}
