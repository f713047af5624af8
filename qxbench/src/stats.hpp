/// \file stats.hpp
/// Summary statistics of the benchmark: percentiles, the sample-count tail
/// rule, the geometric mean of per-input medians, and failure accounting.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qxbench {

/// Percentile `pct` in [0, 100] of `samples` by the Harrell-Davis
/// estimator: a Beta-weighted mean of all order statistics rather than one
/// or two of them, so that a percentile falling between two clusters of
/// latencies does not jump with the noise of a single sample. The samples
/// need not be sorted. Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);

/// Regularized incomplete beta function I_x(a, b), for a, b > 0.
[[nodiscard]] double incomplete_beta(double a, double b, double x);

[[nodiscard]] double median(std::vector<double> samples);

/// The percentiles a tail may be reported at, lowest first.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99};

/// Samples that lie beyond percentile `pct` of `n` samples: n - ceil(pct/100 * n).
[[nodiscard]] std::int64_t samples_beyond(std::int64_t n, double pct);

/// The highest ladder percentile with at least ten samples beyond it among
/// `n` samples. When no percentile above the median qualifies the tail is
/// reported at the median, so a tail never reads below the median.
[[nodiscard]] double tail_percentile(std::int64_t n);

/// Geometric mean over inputs of each input's median sample. Inputs with no
/// samples are skipped; returns 0 when no input has samples.
[[nodiscard]] double geomean_of_medians(const std::map<std::string, std::vector<double>>& by_input);

/// Requests attempted and requests that failed a check.
struct FailureTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const FailureTally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  /// failed / attempted; 0 when nothing was attempted.
  [[nodiscard]] double failed_share() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

}  // namespace qxbench
