#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace qxbench {

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_fraction(a, b, x) / a;
  return 1.0 - front * beta_fraction(b, a, 1.0 - x) / b;
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double p = std::clamp(pct, 0.0, 100.0) / 100.0;
  if (p == 0.0) return samples.front();
  if (p == 1.0) return samples.back();
  const auto n = static_cast<double>(samples.size());
  const double a = p * (n + 1.0);
  const double b = (1.0 - p) * (n + 1.0);
  // Order statistic i (1-based) weighs I_{i/n}(a,b) - I_{(i-1)/n}(a,b). The
  // weights vanish more than a few standard deviations of Beta(a, b) away
  // from p, so only that window is evaluated.
  const double sd = std::sqrt(a * b / ((a + b) * (a + b) * (a + b + 1.0)));
  const double lo = std::max(0.0, std::floor((p - 12.0 * sd) * n));
  const double hi = std::min(n, std::ceil((p + 12.0 * sd) * n));
  double estimate = 0.0;
  double cdf_prev = incomplete_beta(a, b, lo / n);
  for (double i = lo + 1.0; i <= hi; i += 1.0) {
    const double cdf = incomplete_beta(a, b, i / n);
    estimate += (cdf - cdf_prev) * samples[static_cast<std::size_t>(i) - 1];
    cdf_prev = cdf;
  }
  // Mass left outside the window sits on the window's edge statistics.
  estimate += incomplete_beta(a, b, lo / n) * samples[static_cast<std::size_t>(lo)];
  estimate += (1.0 - cdf_prev) * samples[static_cast<std::size_t>(hi) - 1];
  return estimate;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

std::int64_t samples_beyond(std::int64_t n, double pct) {
  const auto at = static_cast<std::int64_t>(std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return n - at;
}

double tail_percentile(std::int64_t n) {
  double best = kTailLadder[0];
  for (const double pct : kTailLadder) {
    if (samples_beyond(n, pct) >= 10) best = pct;
  }
  return best;
}

double geomean_of_medians(const std::map<std::string, std::vector<double>>& by_input) {
  double log_sum = 0.0;
  int inputs = 0;
  for (const auto& [input, samples] : by_input) {
    if (samples.empty()) continue;
    log_sum += std::log(median(samples));
    ++inputs;
  }
  return inputs == 0 ? 0.0 : std::exp(log_sum / inputs);
}

}  // namespace qxbench
