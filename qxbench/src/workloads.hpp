/// \file workloads.hpp
/// The benchmark's three workloads. Each builds its inputs from the seed,
/// times an untimed-warm-up set-up, measures a closed-loop window with
/// tracing off, checks every output, and optionally runs one extra traced
/// pass for the per-layer split.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace qxbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string baseline = "BENCH_table1.json";  ///< Table-1 known answers
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  FailureTally tally;                 ///< measured requests and the ones that failed a check
  std::vector<std::string> problems;  ///< every failed check, including self-checks
  std::vector<std::string> notes;     ///< informational lines for the human-readable report
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs `options.workload`. \throws std::invalid_argument for an unknown name.
[[nodiscard]] Report run_workload(const RunOptions& options);

}  // namespace qxbench
