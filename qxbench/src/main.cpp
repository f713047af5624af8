/// qxbench: runs one benchmark workload and prints its metrics.
///
/// Usage: qxbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///                [--baseline BENCH_table1.json]
///
/// Prints a human-readable report, then one JSON line with every
/// end-to-end and per-layer metric the run produced, the request tally and
/// every failed check. Exits 1 when any check failed, 2 on bad arguments
/// or a set-up error.

#include <cstdio>
#include <iostream>
#include <string>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, qxbench::Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

void print_table(const char* title, const std::map<std::string, qxbench::Metric>& metrics) {
  std::cout << title << "\n";
  for (const auto& [name, m] : metrics) {
    std::cout << "  " << name << " = " << number(m.value) << " " << m.unit << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  qxbench::RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--baseline") {
        options.baseline = value;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "qxbench: " << e.what() << "\n";
    return 2;
  }

  // Measured windows run untraced whatever QXMAP_TRACE says.
  qxmap::obs::TraceRecorder::set_enabled(false);
  qxmap::obs::TraceRecorder::instance().clear();

  qxbench::Report report;
  try {
    report = qxbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "qxbench: " << options.workload << ": " << e.what() << "\n";
    return 2;
  }

  std::cout << "workload " << options.workload << " seed " << options.seed << "\n";
  for (const auto& note : report.notes) std::cout << "  " << note << "\n";
  print_table("end-to-end:", report.end_to_end);
  print_table("per-layer:", report.per_layer);
  for (const auto& p : report.problems) std::cout << "FAILED CHECK: " << p << "\n";

  const bool correct = report.problems.empty();
  std::string problems = "[";
  for (const auto& p : report.problems) {
    if (problems.size() > 1) problems += ", ";
    problems += json_string(p);
  }
  problems += "]";
  std::cout << "{\"workload\": " << json_string(options.workload)
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.tally.attempted
            << ", \"failed\": " << report.tally.failed
            << ", \"end_to_end\": " << metrics_json(report.end_to_end)
            << ", \"per_layer\": " << metrics_json(report.per_layer)
            << ", \"problems\": " << problems << "}" << std::endl;
  return correct ? 0 : 1;
}
