/// \file layers.hpp
/// Per-layer readings: deltas of the library's metrics registry and span
/// self times from a traced pass.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace qxbench {

/// Values of the registry counters, gauges and histogram sums the benchmark
/// reads, keyed by metric name (histograms as "<name>.count" / "<name>.sum").
struct RegistryReading {
  std::map<std::string, double> values;

  [[nodiscard]] static RegistryReading take();
  /// this - earlier, per key (gauges keep this reading's value).
  [[nodiscard]] RegistryReading since(const RegistryReading& earlier) const;
  [[nodiscard]] double operator[](const std::string& key) const;
};

/// Per span name: how many spans, their summed duration, and their summed
/// self time (duration minus the time covered by direct child spans on the
/// same thread).
struct SpanTotals {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

[[nodiscard]] std::map<std::string, SpanTotals> span_totals(
    const std::vector<qxmap::obs::TraceEvent>& events);

}  // namespace qxbench
