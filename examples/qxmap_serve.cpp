/// Batch mapping-as-a-service front-end: reads QASM files (or a built-in
/// demo batch with deliberate duplicates), maps each onto the chosen
/// architecture through the process-wide `api::MappingService`, and prints
/// a per-request line showing whether the request solved, was served from
/// the result cache, or joined an in-flight duplicate — plus the service
/// and executor counters of the metrics registry at the end.
///
/// Usage: example_qxmap_serve [--arch NAME] [--budget-ms N]
///                            [--trace out.json] [--metrics] [file.qasm ...]
/// With no files, a demo batch of Table-1-style circuits (each repeated)
/// shows cache hits live. Duplicate inputs cost one solve total.
///
/// Observability (docs/observability.md):
///   --trace out.json  enable span tracing for the batch, print each
///                     request's phase table (span time by name), and
///                     write a Chrome-trace JSON (load in chrome://tracing
///                     or Perfetto) with request → shard → solve nesting
///   --metrics         print the Prometheus text exposition of the
///                     process-wide metrics registry after the batch

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "bench_circuits/generators.hpp"
#include "exact/shard_executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace qxmap;

struct Job {
  std::string label;
  Circuit circuit;
};

const char* status_name(reason::Status s) {
  switch (s) {
    case reason::Status::Optimal: return "optimal";
    case reason::Status::Feasible: return "feasible";
    case reason::Status::Unsat: return "unsat";
    case reason::Status::Unknown: break;
  }
  return "unknown";
}

/// Prints where the latest request's time went: the summed durations, by
/// span name, of the spans inside its `service.map` span. Shard spans on
/// executor threads are included, so a phase can exceed the request's wall
/// time under parallelism.
void print_phase_table(const std::vector<obs::TraceEvent>& events) {
  const obs::TraceEvent* request = nullptr;
  for (const auto& e : events) {  // sorted by start: the last one is the newest
    if (e.phase == 'X' && e.name == "service.map") request = &e;
  }
  if (request == nullptr) return;
  const std::uint64_t end_ns = request->ts_ns + request->dur_ns;
  std::map<std::string, std::uint64_t> ns_by_name;
  for (const auto& e : events) {
    if (e.phase != 'X' || &e == request) continue;
    if (e.ts_ns >= request->ts_ns && e.ts_ns + e.dur_ns <= end_ns) ns_by_name[e.name] += e.dur_ns;
  }
  ns_by_name["total"] = request->dur_ns;
  std::ostringstream table;
  table << std::fixed << std::setprecision(1);
  for (const auto& [name, ns] : ns_by_name) {
    table << "  " << std::left << std::setw(24) << name << static_cast<double>(ns) / 1e6
          << " ms\n";
  }
  std::cout << table.str();
}

/// Current value of a process-wide registry counter.
std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name, "").value();
}

std::vector<Job> demo_batch() {
  std::vector<Job> jobs;
  for (const std::uint64_t seed : {1, 2, 1, 3, 2, 1}) {  // duplicates on purpose
    Circuit c = bench::random_circuit(3, 4, 4, seed);
    c.set_name("demo-" + std::to_string(seed));
    jobs.push_back({c.name(), std::move(c)});
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string arch_name = "qx4";
    long long budget_ms = 30000;
    std::string trace_path;
    bool print_metrics = false;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--arch" && i + 1 < argc) {
        arch_name = argv[++i];
      } else if (arg == "--budget-ms" && i + 1 < argc) {
        budget_ms = std::stoll(argv[++i]);
      } else if (arg == "--trace" && i + 1 < argc) {
        trace_path = argv[++i];
      } else if (arg == "--metrics") {
        print_metrics = true;
      } else {
        files.push_back(arg);
      }
    }

    if (!trace_path.empty()) {
      obs::TraceRecorder::set_enabled(true);
      obs::TraceRecorder::instance().clear();
    }

    const arch::CouplingMap cm = arch::by_name(arch_name);
    MapOptions options;
    options.exact.use_subsets = true;
    options.exact.budget = std::chrono::milliseconds(budget_ms);

    std::vector<Job> jobs;
    for (const auto& file : files) {
      jobs.push_back({file, qasm::parse_file(file)});
    }
    if (jobs.empty()) jobs = demo_batch();

    api::MappingService& service = api::MappingService::instance();
    for (const auto& job : jobs) {
      const auto result = service.map(job.circuit, cm, options);
      std::cout << job.label << ": cost " << result.cost_f << " ("
                << status_name(result.status) << ", " << result.engine_name << ")"
                << (result.from_cache ? " [cache hit]" : " [solved]") << " in "
                << result.seconds << " s\n";
      if (!trace_path.empty()) print_phase_table(obs::TraceRecorder::instance().snapshot());
    }

    std::cout << "\nservice: " << counter("qxmap_service_requests_total") << " requests = "
              << counter("qxmap_service_cache_misses_total") << " solved + "
              << counter("qxmap_service_cache_hits_total") << " cache hits + "
              << counter("qxmap_service_dedup_joins_total") << " coalesced; "
              << counter("qxmap_service_cache_evictions_total") << " evictions\n"
              << "executor: " << counter("qxmap_executor_tasks_executed_total")
              << " shard tasks across " << counter("qxmap_executor_requests_total")
              << " requests on " << exact::ShardExecutor::instance().num_threads()
              << " workers\n";

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "qxmap_serve: cannot write trace to " << trace_path << "\n";
        return 1;
      }
      obs::TraceRecorder::instance().write_chrome_json(out);
      std::cout << "trace: " << obs::TraceRecorder::instance().event_count() << " events -> "
                << trace_path << "\n";
    }
    if (print_metrics) {
      std::cout << "\n";
      obs::MetricsRegistry::instance().write_prometheus(std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "qxmap_serve: " << e.what() << "\n";
    return 1;
  }
}
