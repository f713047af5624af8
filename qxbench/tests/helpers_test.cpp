/// Tests of the benchmark's statistics and check helpers. A plain program:
/// prints each failed expectation and exits non-zero if there was one.
///
///   ctest --test-dir .bench_build/qxbench

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "arch/architectures.hpp"
#include "checks.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void percentiles() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  expect(near(qxbench::percentile(v, 50), 3), "median of 1..5 is 3");
  expect(near(qxbench::percentile(v, 0), 1), "p0 is the minimum");
  expect(near(qxbench::percentile(v, 100), 5), "p100 is the maximum");
  expect(near(qxbench::percentile({1, 2, 3, 4}, 50), 2.5), "symmetric sample: median at the centre");
  expect(near(qxbench::percentile({7, 7, 7}, 90), 7), "constant sample");
  expect(qxbench::percentile({}, 50) == 0.0, "empty sample reads 0");
  std::vector<double> ramp;
  for (int i = 1; i <= 999; ++i) ramp.push_back(i);
  expect(std::fabs(qxbench::percentile(ramp, 90) - 900) < 1, "p90 of 1..999 is about 900");
  double last = 0;
  for (const double pct : {1.0, 10.0, 50.0, 75.0, 99.0, 99.9}) {
    const double q = qxbench::percentile(ramp, pct);
    expect(q > last, "percentiles increase with pct");
    last = q;
  }
  // A median between two clusters moves with the clusters, not with one
  // sample: nudging the largest low sample shifts it by a fraction.
  std::vector<double> clusters = {10, 10, 10, 11, 30, 30, 31, 31};
  const double before = qxbench::percentile(clusters, 50);
  clusters[3] = 15;
  expect(qxbench::percentile(clusters, 50) - before < 2, "one sample moves the median a little");
}

void incomplete_beta() {
  using qxbench::incomplete_beta;
  expect(near(incomplete_beta(1, 1, 0.3), 0.3), "I_x(1,1) = x");
  expect(near(incomplete_beta(3, 1, 0.5), 0.125), "I_x(a,1) = x^a");
  expect(near(incomplete_beta(40, 40, 0.5), 0.5), "I_0.5(a,a) = 1/2");
  expect(near(incomplete_beta(2, 3, 0.4), 0.5248), "I_0.4(2,3) = 0.5248");
  expect(near(incomplete_beta(59940.9, 60.06, 0.999), 1 - incomplete_beta(60.06, 59940.9, 0.001)),
         "symmetry at large parameters");
}

void tail_from_sample_count() {
  using qxbench::tail_percentile;
  expect(qxbench::samples_beyond(100, 90) == 10, "p90 of 100 leaves 10 beyond");
  expect(qxbench::samples_beyond(99, 90) == 9, "p90 of 99 leaves 9 beyond");
  expect(qxbench::samples_beyond(12000, 99.9) == 12, "p99.9 of 12000 leaves 12 beyond");
  expect(tail_percentile(100) == 90, "100 samples: p90");
  expect(tail_percentile(99) == 75, "99 samples: p90 has only 9 beyond, so p75");
  expect(tail_percentile(48) == 75, "48 samples: p75");
  expect(tail_percentile(39) == 50, "39 samples: p50");
  expect(tail_percentile(18) == 50, "18 samples: no percentile qualifies, the median is used");
  expect(tail_percentile(12000) == 99.9, "12000 samples: p99.9");
  expect(tail_percentile(100000) == 99.99, "100000 samples: p99.99");
  expect(tail_percentile(1000) == 99, "1000 samples: p99");
}

void ten_beyond_rule_on_data() {
  // Distinct values, so "beyond" is unambiguous: at least 10 samples lie
  // strictly above the reported tail, and the tail never reads below p50.
  for (const int n : {20, 40, 99, 100, 250, 1000, 5000, 20000}) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 7919) % n) + 1.0);
    const double pct = qxbench::tail_percentile(n);
    const double tail = qxbench::percentile(v, pct);
    int beyond = 0;
    for (const double x : v) beyond += x > tail ? 1 : 0;
    expect(beyond >= 10, "n=" + std::to_string(n) + ": " + std::to_string(beyond) +
                             " samples beyond the tail");
    expect(tail >= qxbench::median(v), "n=" + std::to_string(n) + ": tail below the median");
  }
  const std::vector<double> few = {3, 1, 2};
  expect(qxbench::percentile(few, qxbench::tail_percentile(3)) >= qxbench::median(few),
         "tiny sample: tail not below the median");
}

void geomean() {
  std::map<std::string, std::vector<double>> by_input;
  by_input["a"] = {5, 3, 4};  // median 4
  by_input["b"] = {9};          // median 9
  by_input["c"] = {};           // no samples: skipped
  expect(near(qxbench::geomean_of_medians(by_input), 6.0), "geomean of medians 4 and 9 is 6");
  by_input["d"] = {2, 8};  // median 5
  expect(near(qxbench::geomean_of_medians(by_input), std::cbrt(4.0 * 9.0 * 5.0)),
         "three inputs");
  expect(qxbench::geomean_of_medians({}) == 0.0, "no inputs reads 0");
}

/// Failed-share accounting through MappingService's SolveFn seam: the
/// injected solver throws for one circuit, returns an unverified result for
/// another, a wrong cost for a third, and the real answer otherwise.
void failed_share_through_service() {
  using namespace qxmap;
  const arch::CouplingMap qx4 = arch::ibm_qx4();
  const MapOptions options;
  Circuit good(2, "good");
  good.append(Gate::cnot(0, 1));
  Circuit throws(2, "throws");
  throws.append(Gate::cnot(1, 0));
  Circuit unverified(3, "unverified");
  unverified.append(Gate::cnot(0, 2));
  Circuit wrong(3, "wrong");
  wrong.append(Gate::cnot(2, 1));

  auto solve = [](const Circuit& c, const arch::CouplingMap& cm, const MapOptions& o) {
    if (c.name() == "throws") throw std::runtime_error("injected failure");
    exact::MappingResult res = qxmap::map(c, cm, o);
    if (c.name() == "unverified") res.verified = false;
    if (c.name() == "wrong") res.cost_f += 1;
    return res;
  };
  api::MappingService service(8, solve);

  qxbench::FailureTally tally;
  const std::vector<const Circuit*> requests = {&good, &throws, &unverified, &wrong, &good};
  for (const Circuit* c : requests) {
    exact::MappingResult reference;
    try {
      reference = qxmap::map(*c, qx4, options);
    } catch (const std::exception&) {
      expect(false, "reference solve of " + c->name());
    }
    std::string problem;
    try {
      problem = qxbench::served_problem(service.map(*c, qx4, options), reference, true);
    } catch (const std::exception& e) {
      problem = std::string("threw: ") + e.what();
    }
    tally.record(problem.empty());
  }
  expect(tally.attempted == 5, "five requests attempted");
  expect(tally.failed == 3, "three requests failed, got " + std::to_string(tally.failed));
  expect(near(tally.failed_share(), 0.6), "failed_share is 3/5");
  expect(qxbench::FailureTally{}.failed_share() == 0.0, "nothing attempted reads 0");
}

void coupling_legality() {
  using namespace qxmap;
  const arch::CouplingMap qx4 = arch::ibm_qx4();
  const auto [c, t] = qx4.edges().front();
  Circuit legal(5);
  legal.append(Gate::cnot(c, t));
  legal.append(Gate::single(OpKind::H, 4));
  expect(qxbench::coupling_violation(legal, qx4).empty(), "a CNOT along an edge is legal");
  Circuit reversed(5);
  reversed.append(Gate::cnot(t, c));
  expect(!qxbench::coupling_violation(reversed, qx4).empty(), "a reversed CNOT is illegal");
  Circuit swapped(5);
  swapped.append(Gate::swap(c, t));
  expect(!qxbench::coupling_violation(swapped, qx4).empty(), "a SWAP pseudo-gate is illegal");
}

}  // namespace

int main() {
  percentiles();
  incomplete_beta();
  tail_from_sample_count();
  ten_beyond_rule_on_data();
  geomean();
  failed_share_through_service();
  coupling_legality();
  if (failures == 0) std::cout << "all helper tests passed\n";
  return failures == 0 ? 0 : 1;
}
