/// Registry-delta reader for tests: the growth of one process-wide
/// `obs::MetricsRegistry` counter since the reader was constructed.
///
/// ```cpp
/// const testutil::CounterDelta hits("qxmap_service_cache_hits_total");
/// (void)service.map(c, cm);
/// EXPECT_EQ(hits(), 1u);
/// ```
///
/// The counters aggregate over every instance in the process, so a delta
/// counts only the test's own work while nothing else in the process
/// updates the counter.

#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace qxmap::testutil {

class CounterDelta {
 public:
  /// Looking a counter up registers it when the library has not yet done
  /// so; the library's later registration then returns the same counter.
  explicit CounterDelta(const char* name)
      : counter_(obs::MetricsRegistry::instance().counter(name, name)),
        base_(counter_.value()) {}

  [[nodiscard]] std::uint64_t operator()() const { return counter_.value() - base_; }

 private:
  const obs::Counter& counter_;
  std::uint64_t base_;
};

}  // namespace qxmap::testutil
