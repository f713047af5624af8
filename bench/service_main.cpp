/// \file service_main.cpp
/// Throughput benchmark for the mapping service (api/service.hpp): replays
/// Table-1 rows through `MappingService` cold (every request solves) and
/// warm (every request hits the result cache) and reports the per-request
/// latency distribution of both passes plus the warm/cold speedup.
///
/// Usage: bench_service [--smoke] [--rows N] [--repeat N] [--budget-ms N]
///                      [--min-speedup X]
///   --smoke         CI mode: assert that (a) the warm pass spawns zero
///                   shard work on the executor (pure cache traffic),
///                   (b) warm median latency beats cold median by
///                   --min-speedup, and (c) tracing stays disabled with
///                   zero trace events recorded during the warm loop —
///                   the speedup floor doubles as the disabled-overhead
///                   gate (docs/observability.md); exit 1 otherwise
///   --rows N        how many of the smallest Table-1 rows to replay
///                   (default 6)
///   --repeat N      warm requests per row (default 5)
///   --budget-ms N   exact-solver budget per request (default 30000)
///   --min-speedup X cold/warm median ratio the smoke mode requires
///                   (default 10; the acceptance floor of the service PR)
///
/// An unknown argument, or a numeric value that is not a whole number in
/// range, exits 2.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "arch/architectures.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "bench_meta.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace qxmap;
using Clock = std::chrono::steady_clock;

/// Current value of a process-wide registry counter. This benchmark is the
/// process's only client, so the totals are its own.
std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name, "").value();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct Args {
  bool smoke = false;
  int rows = 6;
  int repeat = 5;
  long long budget_ms = 30000;
  double min_speedup = 10.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--rows") {
      a.rows = parse_number<int>(next(), arg, 1);
    } else if (arg == "--repeat") {
      a.repeat = parse_number<int>(next(), arg, 1);
    } else if (arg == "--budget-ms") {
      a.budget_ms = parse_number<long long>(next(), arg, 1, bench::kMaxBudgetMs);
    } else if (arg == "--min-speedup") {
      a.min_speedup = parse_number<double>(next(), arg, 0.0);
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_service: " << e.what() << "\n";
    return 2;
  }
  try {

    // The smallest rows by symbolic-instance size (qubits, then CNOTs):
    // service traffic is dominated by small repeated requests, and the
    // smoke gate must stay fast on a loaded 1-core CI runner.
    std::vector<bench::Table1Benchmark> rows = bench::table1_benchmarks();
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       if (a.n != b.n) return a.n < b.n;
                       return a.cnot < b.cnot;
                     });
    if (static_cast<int>(rows.size()) > args.rows) {
      rows.resize(static_cast<std::size_t>(args.rows));
    }

    // Disabled-overhead gate: the latency numbers below measure the
    // instrumented hot path with tracing off, so force the disabled mode
    // regardless of QXMAP_TRACE and verify nothing gets recorded. A span
    // leak here would show up twice — a nonzero event delta and a warm
    // median too slow for the --min-speedup floor.
    obs::TraceRecorder::set_enabled(false);
    const std::uint64_t trace_events_before = obs::TraceRecorder::instance().event_count();

    const auto cm = arch::ibm_qx4();
    MapOptions options;
    options.exact.use_subsets = true;
    options.exact.budget = std::chrono::milliseconds(args.budget_ms);

    api::MappingService service(64);
    std::vector<double> cold_ms;
    std::vector<double> warm_ms;

    std::cout << "bench_service: " << rows.size() << " Table-1 rows on qx4, "
              << args.repeat << " warm repeats\n";
    for (const auto& row : rows) {
      const Circuit circuit = row.build();
      const auto t0 = Clock::now();
      const auto cold = service.map(circuit, cm, options);
      const double cold_t = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      cold_ms.push_back(cold_t);
      if (cold.from_cache) throw std::runtime_error("bench_service: cold request hit the cache");

      const std::uint64_t shard_work_before = counter("qxmap_executor_tasks_executed_total");
      double row_warm = 0.0;
      for (int r = 0; r < args.repeat; ++r) {
        const auto t1 = Clock::now();
        const auto warm = service.map(circuit, cm, options);
        const double warm_t =
            std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
        warm_ms.push_back(warm_t);
        row_warm += warm_t;
        if (!warm.from_cache) throw std::runtime_error("bench_service: warm request missed");
        if (warm.cost_f != cold.cost_f || !(warm.mapped == cold.mapped)) {
          throw std::runtime_error("bench_service: warm result diverged from cold");
        }
      }
      const std::uint64_t shard_work =
          counter("qxmap_executor_tasks_executed_total") - shard_work_before;
      std::cout << "  " << row.name << ": cold " << cold_t << " ms, warm avg "
                << row_warm / args.repeat << " ms, warm shard tasks " << shard_work << "\n";
      if (args.smoke && shard_work != 0) {
        std::cerr << "bench_service: FAIL — warm hits spawned " << shard_work
                  << " shard tasks on " << row.name << " (expected 0)\n";
        return 1;
      }
    }

    const double cold_med = median(cold_ms);
    const double warm_med = median(warm_ms);
    const double speedup = warm_med > 0.0 ? cold_med / warm_med : 0.0;
    std::cout << "cold median " << cold_med << " ms | warm median " << warm_med
              << " ms | speedup " << speedup << "x\n"
              << "service: " << counter("qxmap_service_requests_total") << " requests, "
              << counter("qxmap_service_cache_hits_total") << " hits, "
              << counter("qxmap_service_cache_misses_total") << " misses, "
              << counter("qxmap_service_solves_total") << " solves\n";

    if (args.smoke && speedup < args.min_speedup) {
      std::cerr << "bench_service: FAIL — warm/cold median speedup " << speedup << "x < "
                << args.min_speedup << "x\n";
      return 1;
    }
    const std::uint64_t trace_events =
        obs::TraceRecorder::instance().event_count() - trace_events_before;
    if (args.smoke && trace_events != 0) {
      std::cerr << "bench_service: FAIL — disabled-mode tracing recorded " << trace_events
                << " events (expected 0)\n";
      return 1;
    }
    if (args.smoke) std::cout << "bench_service: smoke OK (trace disabled, 0 events)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
