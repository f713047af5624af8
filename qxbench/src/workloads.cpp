#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/qxmap.hpp"
#include "api/service.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "checks.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"

namespace qxbench {

namespace {

using namespace qxmap;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// SplitMix64, the benchmark's only source of randomness: a seed gives the
/// same inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// An independent seed for sub-stream `stream` of the run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + stream);
  return rng.next();
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

double cpu_ms() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e3;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

constexpr int kSetupReps = 3;

/// Median seconds of `kSetupReps` set-ups. The process-wide swap-cost cache
/// is emptied before each, so every repetition pays its fill.
double timed_setup(Report& r, const std::function<void()>& setup) {
  std::vector<double> seconds;
  std::string note = "set-up s:";
  for (int i = 0; i < kSetupReps; ++i) {
    arch::SwapCostCache::instance().clear();
    const auto t0 = Clock::now();
    setup();
    seconds.push_back(ms_since(t0) / 1e3);
    note += " " + std::to_string(seconds.back());
  }
  r.notes.push_back(note);
  return median(seconds);
}

enum class Kind { Exact, Sabre, LayerWeight };

/// One measured request.
struct Sample {
  std::string input;
  double ms = 0.0;
  Kind kind = Kind::Exact;
  bool solved = true;  ///< false when served from the service's result cache
  int swaps = 0;
};

/// What the untraced, measured window gathered.
struct Window {
  double cpu_ms = 0.0;
  std::vector<double> round_maps_per_s;  ///< per pass or epoch
  std::vector<Sample> samples;
  FailureTally tally;
  std::map<std::string, long long> added_gates;  ///< cost_f per distinct input
  std::int64_t min_samples = 0;  ///< the count the loop guarantees; fixes the tail percentile
  RegistryReading registry;      ///< deltas over the window
  std::int64_t exact_attempted = 0;
  std::int64_t exact_proven = 0;
};

/// What the extra traced pass gathered.
struct Traced {
  bool ran = false;
  std::map<std::string, SpanTotals> spans;
  RegistryReading registry;
  std::int64_t requests = 0;
  double wall_s = 0.0;
};

void put(std::map<std::string, Metric>& m, const std::string& name, double value,
         const char* unit) {
  m[name] = {std::isfinite(value) ? value : 0.0, unit};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// A problem with one request: counted in the window's tally and listed.
void record(Report& r, Window& w, const std::string& input, const std::string& problem) {
  w.tally.record(problem.empty());
  if (!problem.empty()) r.problems.push_back(input + ": " + problem);
}

/// Runs `pass` once with tracing on and returns the spans it recorded; the
/// pass returns how many requests it made.
Traced traced_pass(const std::function<std::int64_t()>& pass) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  Traced t;
  t.ran = true;
  const RegistryReading before = RegistryReading::take();
  obs::TraceRecorder::set_enabled(true);
  const auto t0 = Clock::now();
  t.requests = pass();
  t.wall_s = ms_since(t0) / 1e3;
  obs::TraceRecorder::set_enabled(false);
  t.registry = RegistryReading::take().since(before);
  t.spans = span_totals(recorder.snapshot());
  recorder.clear();
  return t;
}

/// Checks that the untraced window recorded no trace events.
void check_untraced(Report& r) {
  const std::size_t events = obs::TraceRecorder::instance().event_count();
  if (events != 0) {
    r.problems.push_back("untraced window recorded " + std::to_string(events) + " trace events");
  }
}

void report_end_to_end(Report& r, const Window& w, double setup_s) {
  r.tally = w.tally;
  std::vector<double> latencies;
  std::map<std::string, std::vector<double>> by_input;
  for (const Sample& s : w.samples) {
    latencies.push_back(s.ms);
    by_input[s.input].push_back(s.ms);
  }
  const auto n = static_cast<double>(latencies.size());
  const double tail_pct = tail_percentile(w.min_samples);
  double gates = 0.0;
  for (const auto& [input, cost] : w.added_gates) gates += static_cast<double>(cost);

  put(r.end_to_end, "setup_s", setup_s, "s");
  put(r.end_to_end, "maps_per_s", median(w.round_maps_per_s), "1/s");
  put(r.end_to_end, "map_ms_geomean", geomean_of_medians(by_input), "ms");
  put(r.end_to_end, "latency_p50_ms", percentile(latencies, 50.0), "ms");
  put(r.end_to_end, "latency_tail_ms", percentile(latencies, tail_pct), "ms");
  put(r.end_to_end, "cpu_ms_per_map", ratio(w.cpu_ms, n), "ms");
  put(r.end_to_end, "added_gates_mean",
      ratio(gates, static_cast<double>(w.added_gates.size())), "count");
  put(r.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");

  put(r.per_layer, "latency_tail_percentile", tail_pct, "pct");
  put(r.per_layer, "latency_samples", n, "count");
  put(r.per_layer, "failed_share", r.tally.failed_share(), "ratio");
  put(r.per_layer, "proven_share",
      ratio(static_cast<double>(w.exact_proven), static_cast<double>(w.exact_attempted)), "ratio");
  r.notes.push_back("latency tail at p" + std::to_string(tail_pct).substr(0, 5) + " of " +
                    std::to_string(latencies.size()) + " samples (" +
                    std::to_string(samples_beyond(static_cast<std::int64_t>(n), tail_pct)) +
                    " beyond it)");
}

/// The layer metrics every workload reports; a layer a workload does not
/// use reads 0.
void report_layers(Report& r, const Window& w, const Traced& t) {
  auto& m = r.per_layer;
  const RegistryReading& d = w.registry;
  const auto maps = static_cast<double>(w.samples.size());
  for (const char* c : {"conflicts", "decisions", "propagations", "restarts", "learned",
                        "learnt_deleted"}) {
    put(m, std::string("cdcl.") + c + "_per_map",
        ratio(d[std::string("qxmap_cdcl_") + c + "_total"], maps), "count");
  }
  put(m, "exact.instances_per_exact_map",
      ratio(d["qxmap_exact_instances_solved_total"], d["qxmap_exact_maps_total"]), "count");
  put(m, "executor.tasks_per_map", ratio(d["qxmap_executor_tasks_executed_total"], maps), "count");
  put(m, "executor.steals_per_map", ratio(d["qxmap_executor_steals_total"], maps), "count");
  put(m, "executor.queue_wait_us_mean",
      ratio(d["qxmap_executor_queue_wait_us.sum"], d["qxmap_executor_queue_wait_us.count"]), "us");
  put(m, "executor.task_run_ms_mean",
      ratio(d["qxmap_executor_task_run_us.sum"], d["qxmap_executor_task_run_us.count"]) / 1e3,
      "ms");
  put(m, "executor.queue_depth_high_water", d["qxmap_executor_queue_depth_high_water"], "count");
  const double polls = d["qxmap_engine_bound_polls_total"];
  const double tightenings = d["qxmap_engine_bound_tightenings_total"];
  put(m, "engine.bound_polls_per_map", ratio(polls, maps), "count");
  put(m, "engine.bound_tightenings_per_map", ratio(tightenings, maps), "count");
  put(m, "engine.tightening_ratio", ratio(tightenings, polls), "ratio");
  for (const char* store : {"table", "distance"}) {
    const double hits = d[std::string("qxmap_swap_cost_cache_") + store + "_hits_total"];
    const double misses = d[std::string("qxmap_swap_cost_cache_") + store + "_misses_total"];
    put(m, std::string("arch.swap_cost_cache.") + store + "_hit_ratio", ratio(hits, hits + misses),
        "ratio");
  }
  put(m, "arch.swap_cost_cache.misses",
      d["qxmap_swap_cost_cache_table_misses_total"] +
          d["qxmap_swap_cost_cache_distance_misses_total"],
      "count");

  // Heuristic split, over requests the router actually ran.
  for (const auto& [kind, name] : {std::pair{Kind::Sabre, "sabre"},
                                   std::pair{Kind::LayerWeight, "layer_weight"}}) {
    std::vector<double> ms;
    std::vector<double> swaps;
    for (const Sample& s : w.samples) {
      if (s.kind != kind || !s.solved) continue;
      ms.push_back(s.ms);
      swaps.push_back(s.swaps);
    }
    put(m, std::string("heuristic.") + name + "_ms_per_map", mean_of(ms), "ms");
    put(m, std::string("heuristic.") + name + "_swaps_per_map", mean_of(swaps), "count");
  }

  // Traced-pass readings, per request of the traced pass. The exact phases
  // are the leaves of the exact layer; solve and canonical_resolve include
  // the CDCL minimize call they start, which has no other child spans.
  auto span = [&](const std::string& name) {
    const auto it = t.spans.find(name);
    return it == t.spans.end() ? SpanTotals{} : it->second;
  };
  const auto traced = static_cast<double>(t.requests);
  double phases_ms = 0.0;
  for (const char* phase : {"subsets", "warm_start", "prefix", "encode", "solve",
                            "canonical_resolve", "reconstruct", "verify"}) {
    const double ms = span(std::string("exact.") + phase).total_ms;
    phases_ms += ms;
    put(m, std::string("exact.") + phase + "_ms_per_map", ratio(ms, traced), "ms");
  }
  put(m, "exact.solve_share", ratio(span("exact.solve").total_ms, phases_ms), "ratio");
  put(m, "exact.canonical_share", ratio(span("exact.canonical_resolve").total_ms, phases_ms),
      "ratio");
  const SpanTotals minimize = span("cdcl.minimize");
  put(m, "reason.minimize_ms_per_map", ratio(minimize.self_ms, traced), "ms");
  put(m, "cdcl.conflicts_per_solve_s",
      ratio(t.registry["qxmap_cdcl_conflicts_total"], minimize.total_ms / 1e3), "1/s");
  put(m, "cdcl.propagations_per_solve_s",
      ratio(t.registry["qxmap_cdcl_propagations_total"], minimize.total_ms / 1e3), "1/s");
  const double heuristic_maps =
      static_cast<double>(span("heuristic.sabre").count + span("heuristic.layer_weight").count);
  put(m, "heuristic.iterations_per_map",
      ratio(static_cast<double>(span("heuristic.iteration").count), heuristic_maps), "count");
  double service_self_ms = 0.0;
  for (const char* s : {"service.map", "service.cache_hit", "service.dedup_join", "service.solve"}) {
    service_self_ms += span(s).self_ms;
  }
  put(m, "api.service.self_us_per_request", ratio(service_self_ms * 1e3, traced), "us");
  put(m, "obs.trace_overhead_ratio",
      t.ran ? ratio(ratio(traced, t.wall_s), median(w.round_maps_per_s)) : 0.0, "ratio");

  // Service readings; the service workload overwrites them.
  for (const char* name : {"api.service.hit_ratio", "api.service.dedup_joins_per_epoch",
                           "api.service.solves_per_epoch"}) {
    put(m, name, 0.0, name == std::string("api.service.hit_ratio") ? "ratio" : "count");
  }
  put(m, "api.service.hit_us_p50", 0.0, "us");
  put(m, "api.service.miss_ms_p50", 0.0, "ms");
  put(m, "api.service.key_us_mean", 0.0, "us");
  put(m, "qasm.parse_us_mean", 0.0, "us");
}

// ---------------------------------------------------------------------------
// exact_table1: the paper's exact pipeline on the Table-1 rows of QX4.
// ---------------------------------------------------------------------------

/// Table-1 rows that prove in under 10k conflicts at one thread.
const std::vector<std::string> kExactRows = {
    "3_17_13",    "ex-1_166",    "ham3_102",    "miller_11",   "4gt11_84",  "rd32-v0_66",
    "rd32-v1_68", "4gt11_82",    "4gt11_83",    "4mod5-v0_20", "4mod5-v1_22", "4mod5-v1_24",
    "alu-v1_28",  "alu-v2_33",   "alu-v3_35",   "alu-v4_37",   "mod5d1_63", "mod5mils_65"};

struct ExactRow {
  std::string name;
  Circuit circuit;
  long long known_cost_f = 0;
};

/// Empty when an exact result is proven optimal at its known cost.
std::string exact_problem(const exact::MappingResult& res, const ExactRow& row,
                          const arch::CouplingMap& cm) {
  if (std::string p = result_problem(res, row.circuit, cm); !p.empty()) return p;
  if (res.status != reason::Status::Optimal) return "not proven optimal";
  if (res.cost_f != row.known_cost_f) {
    return "cost_f " + std::to_string(res.cost_f) + ", known answer " +
           std::to_string(row.known_cost_f);
  }
  return {};
}

std::vector<ExactRow> load_rows(const std::vector<std::string>& names,
                                const std::map<std::string, long long>& proven) {
  std::vector<ExactRow> rows;
  for (const std::string& name : names) {
    const auto& b = bench::table1_benchmark(name);
    const auto it = proven.find(name);
    if (it == proven.end()) throw std::runtime_error("no proven baseline cost for " + name);
    rows.push_back({name, b.build(), it->second - b.original_cost()});
  }
  return rows;
}

Report exact_table1(const RunOptions& o) {
  // One thread means one: with no pool workers every subset instance runs
  // on the client thread, so the work and the memory high-water mark repeat.
  setenv("QXMAP_EXECUTOR_THREADS", "0", 1);
  Report r;
  const arch::CouplingMap qx4 = arch::ibm_qx4();
  MapOptions options;
  options.method = Method::Exact;
  options.exact.engine = reason::EngineKind::Cdcl;
  options.exact.use_subsets = true;
  options.exact.num_threads = 1;
  options.exact.budget = std::chrono::milliseconds(60000);

  std::vector<ExactRow> rows;
  const double setup_s = timed_setup(r, [&] {
    rows = load_rows(kExactRows, load_proven_costs(o.baseline));
    const ExactRow& warm = rows.front();
    const auto res = qxmap::map(warm.circuit, qx4, options);
    if (std::string p = exact_problem(res, warm, qx4); !p.empty()) {
      throw std::runtime_error("warm-up " + warm.name + ": " + p);
    }
  });

  auto& conflicts = obs::MetricsRegistry::instance().counter("qxmap_cdcl_conflicts_total", "");
  // Untimed warm-up pass: fixes each row's conflict count, which every
  // later pass, traced or not, must repeat exactly at one thread.
  std::map<std::string, std::uint64_t> row_conflicts;
  for (const ExactRow& row : rows) {
    const std::uint64_t c0 = conflicts.value();
    const auto res = qxmap::map(row.circuit, qx4, options);
    row_conflicts[row.name] = conflicts.value() - c0;
    if (std::string p = exact_problem(res, row, qx4); !p.empty()) {
      r.problems.push_back("warm-up " + row.name + ": " + p);
    }
  }

  std::int64_t request = 0;
  auto run_pass = [&](Window& win, std::uint64_t pass) {
    const auto pass_t0 = Clock::now();
    for (const std::size_t i : shuffled(rows.size(), sub_seed(o.seed, pass))) {
      const ExactRow& row = rows[i];
      const std::uint64_t c0 = conflicts.value();
      std::string problem;
      try {
        const auto start = Clock::now();
        exact::MappingResult res;
        {
          obs::Span span("bench.map", "bench");
          span.attr("request", static_cast<long long>(request++));
          span.attr("input", row.name);
          res = qxmap::map(row.circuit, qx4, options);
        }
        win.samples.push_back({row.name, ms_since(start), Kind::Exact, true, res.swaps_inserted});
        problem = exact_problem(res, row, qx4);
        win.added_gates[row.name] = res.cost_f;
        if (res.status == reason::Status::Optimal) ++win.exact_proven;
      } catch (const std::exception& e) {
        problem = std::string("threw: ") + e.what();
      }
      ++win.exact_attempted;
      record(r, win, row.name, problem);
      const std::uint64_t used = conflicts.value() - c0;
      if (used != row_conflicts[row.name]) {
        r.problems.push_back("conflicts of " + row.name + " changed: warm-up " +
                             std::to_string(row_conflicts[row.name]) + ", pass " +
                             std::to_string(pass) + " " + std::to_string(used));
      }
    }
    win.round_maps_per_s.push_back(static_cast<double>(rows.size()) / (ms_since(pass_t0) / 1e3));
  };

  Window w;
  w.min_samples = static_cast<std::int64_t>(rows.size());
  const RegistryReading before = RegistryReading::take();
  const double cpu0 = cpu_ms();
  const auto t0 = Clock::now();
  std::uint64_t passes = 0;
  while (passes == 0 || ms_since(t0) < o.seconds * 1e3) run_pass(w, passes++);
  w.cpu_ms = cpu_ms() - cpu0;
  w.registry = RegistryReading::take().since(before);
  check_untraced(r);
  report_end_to_end(r, w, setup_s);

  std::uint64_t pass_conflicts = 0;
  for (const auto& [name, c] : row_conflicts) pass_conflicts += c;
  r.notes.push_back("cdcl conflicts per pass (warm-up and every measured pass): " +
                    std::to_string(pass_conflicts));

  Traced t;
  if (o.trace) {
    t = traced_pass([&] {
      Window traced;
      run_pass(traced, passes);
      return static_cast<std::int64_t>(traced.samples.size());
    });
  }
  report_layers(r, w, t);
  return r;
}

// ---------------------------------------------------------------------------
// service_replay: Zipf traffic through a fresh MappingService per epoch.
// ---------------------------------------------------------------------------

constexpr int kClients = 3;
constexpr std::size_t kRequestsPerEpoch = 4000;
constexpr int kMinEpochs = 3;
constexpr double kZipfExponent = 1.1;

struct CatalogKey {
  std::string label;
  std::size_t text = 0;  ///< index into the QASM texts
  std::size_t arch = 0;  ///< index into the architectures
  Kind kind = Kind::Exact;
};

struct ServiceInputs {
  std::vector<std::string> names;  ///< Table-1 row per QASM text
  std::vector<std::string> texts;
  std::vector<arch::CouplingMap> archs;  ///< qx4, tokyo, qx5
  std::vector<CatalogKey> keys;
  MapOptions exact;
  MapOptions sabre;
  MapOptions layer_weight;

  [[nodiscard]] const MapOptions& options(Kind k) const {
    return k == Kind::Exact ? exact : k == Kind::Sabre ? sabre : layer_weight;
  }
};

ServiceInputs make_service_inputs() {
  ServiceInputs in;
  in.archs = {arch::ibm_qx4(), arch::ibm_tokyo(), arch::ibm_qx5()};
  const auto& rows = bench::table1_benchmarks();
  for (const auto& b : rows) {
    in.names.push_back(b.name);
    in.texts.push_back(qasm::write(b.build()));
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].n <= 4) in.keys.push_back({rows[i].name + "@qx4/exact", i, 0, Kind::Exact});
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    in.keys.push_back({rows[i].name + "@tokyo/sabre", i, 1, Kind::Sabre});
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    in.keys.push_back({rows[i].name + "@qx5/layer_weight", i, 2, Kind::LayerWeight});
  }
  in.exact.method = Method::Exact;
  in.exact.exact.use_subsets = true;
  in.exact.exact.budget = std::chrono::milliseconds(30000);
  in.sabre.method = Method::Sabre;
  in.layer_weight.method = Method::LayerWeight;
  return in;
}

/// A Zipf(kZipfExponent) draw of request keys over a seeded ranking of the
/// catalog, topped up so that every key appears at least once.
std::vector<std::size_t> zipf_stream(std::size_t num_keys, std::uint64_t seed) {
  const std::vector<std::size_t> rank_to_key = shuffled(num_keys, sub_seed(seed, 0));
  std::vector<double> cdf(num_keys);
  double total = 0.0;
  for (std::size_t k = 0; k < num_keys; ++k) {
    total += std::pow(static_cast<double>(k + 1), -kZipfExponent);
    cdf[k] = total;
  }
  Rng rng(sub_seed(seed, 1));
  std::vector<std::size_t> stream;
  std::vector<bool> seen(num_keys, false);
  for (std::size_t i = 0; i < kRequestsPerEpoch; ++i) {
    const double u = rng.uniform() * total;
    const auto rank = static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                               cdf.begin());
    const std::size_t key = rank_to_key[std::min(rank, num_keys - 1)];
    seen[key] = true;
    stream.push_back(key);
  }
  for (std::size_t key = 0; key < num_keys; ++key) {
    if (!seen[key]) stream.push_back(key);
  }
  return stream;
}

struct EpochResult {
  std::vector<Sample> samples;
  std::vector<double> parse_us;
  FailureTally tally;
  std::vector<std::string> problems;
  std::int64_t exact_attempted = 0;
  std::int64_t exact_proven = 0;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
};

/// One epoch: kClients closed-loop clients drain `stream` through a fresh
/// service. The benchmark's spans around the parse and the service call
/// record only while tracing is on.
EpochResult run_epoch(const ServiceInputs& in, const std::vector<exact::MappingResult>& reference,
                      const std::vector<std::size_t>& stream) {
  api::MappingService service(api::MappingService::kDefaultCapacity);
  std::atomic<std::size_t> next{0};
  std::vector<EpochResult> per_client(kClients);
  auto client = [&](EpochResult& out) {
    for (std::size_t i = next.fetch_add(1); i < stream.size(); i = next.fetch_add(1)) {
      const CatalogKey& key = in.keys[stream[i]];
      const auto start = Clock::now();
      std::string problem;
      try {
        Circuit circuit;
        {
          obs::Span span("bench.parse", "bench");
          span.attr("request", i);
          circuit = qasm::parse(in.texts[key.text], in.names[key.text]);
        }
        const double parse_ms = ms_since(start);
        exact::MappingResult res;
        {
          obs::Span span("bench.service_map", "bench");
          span.attr("request", i);
          span.attr("input", key.label);
          res = service.map(circuit, in.archs[key.arch], in.options(key.kind));
        }
        const double ms = ms_since(start);
        problem = served_problem(res, reference[stream[i]], key.kind == Kind::Exact);
        if (key.kind == Kind::Exact) {
          ++out.exact_attempted;
          if (res.status == reason::Status::Optimal) ++out.exact_proven;
        }
        out.samples.push_back({key.label, ms, key.kind, !res.from_cache, res.swaps_inserted});
        out.parse_us.push_back(parse_ms * 1e3);
      } catch (const std::exception& e) {
        problem = std::string("threw: ") + e.what();
        if (key.kind == Kind::Exact) ++out.exact_attempted;
      }
      out.tally.record(problem.empty());
      if (!problem.empty()) out.problems.push_back(key.label + ": " + problem);
    }
  };
  const double cpu0 = cpu_ms();
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (auto& out : per_client) clients.emplace_back(client, std::ref(out));
  }
  EpochResult all;
  all.wall_s = ms_since(t0) / 1e3;
  all.cpu_ms = cpu_ms() - cpu0;
  for (auto& c : per_client) {
    all.samples.insert(all.samples.end(), c.samples.begin(), c.samples.end());
    all.parse_us.insert(all.parse_us.end(), c.parse_us.begin(), c.parse_us.end());
    all.tally.merge(c.tally);
    all.problems.insert(all.problems.end(), c.problems.begin(), c.problems.end());
    all.exact_attempted += c.exact_attempted;
    all.exact_proven += c.exact_proven;
  }
  return all;
}

Report service_replay(const RunOptions& o) {
  Report r;
  std::optional<ServiceInputs> inputs;
  std::vector<exact::MappingResult> reference;
  std::vector<std::string> reference_problems;
  const double setup_s = timed_setup(r, [&] {
    inputs = make_service_inputs();
    // One request per (architecture, method) fills the executor pool, the
    // swap-cost cache and the allocator.
    api::MappingService warm(api::MappingService::kDefaultCapacity);
    for (const Kind kind : {Kind::Exact, Kind::Sabre, Kind::LayerWeight}) {
      const auto it = std::find_if(inputs->keys.begin(), inputs->keys.end(),
                                   [&](const CatalogKey& k) { return k.kind == kind; });
      const Circuit c = qasm::parse(inputs->texts[it->text], inputs->names[it->text]);
      const auto res = warm.map(c, inputs->archs[it->arch], inputs->options(kind));
      if (std::string p = result_problem(res, c, inputs->archs[it->arch]); !p.empty()) {
        throw std::runtime_error("warm-up " + it->label + ": " + p);
      }
    }
    // Answer key: every catalog entry mapped once directly at one thread.
    const std::map<std::string, long long> proven = load_proven_costs(o.baseline);
    reference.clear();
    reference_problems.clear();
    for (const CatalogKey& key : inputs->keys) {
      const Circuit c = qasm::parse(inputs->texts[key.text], inputs->names[key.text]);
      MapOptions one = inputs->options(key.kind);
      one.exact.num_threads = 1;
      reference.push_back(qxmap::map(c, inputs->archs[key.arch], one));
      std::string p = result_problem(reference.back(), c, inputs->archs[key.arch]);
      if (p.empty() && key.kind == Kind::Exact) {
        const auto& b = bench::table1_benchmark(inputs->names[key.text]);
        const auto it = proven.find(b.name);
        if (reference.back().status != reason::Status::Optimal) {
          p = "reference not proven optimal";
        } else if (it != proven.end() && reference.back().cost_f != it->second - b.original_cost()) {
          p = "reference cost_f " + std::to_string(reference.back().cost_f) + ", known answer " +
              std::to_string(it->second - b.original_cost());
        }
      }
      if (!p.empty()) reference_problems.push_back("reference " + key.label + ": " + p);
    }
  });
  const ServiceInputs& in = *inputs;
  r.problems.insert(r.problems.end(), reference_problems.begin(), reference_problems.end());

  Window w;
  w.min_samples = static_cast<std::int64_t>(kMinEpochs * kRequestsPerEpoch);
  std::vector<double> parse_us;
  std::vector<double> epoch_s;
  std::int64_t epochs = 0;
  const RegistryReading before = RegistryReading::take();
  auto& solves = obs::MetricsRegistry::instance().counter("qxmap_service_solves_total", "");
  const auto t0 = Clock::now();
  while (epochs < kMinEpochs || ms_since(t0) < o.seconds * 1e3) {
    const auto stream = zipf_stream(in.keys.size(), sub_seed(o.seed, 100 + epochs));
    const std::uint64_t solves0 = solves.value();
    EpochResult e = run_epoch(in, reference, stream);
    const std::uint64_t solved = solves.value() - solves0;
    if (solved != in.keys.size()) {
      r.problems.push_back("epoch " + std::to_string(epochs) + " solved " + std::to_string(solved) +
                           " keys, catalog has " + std::to_string(in.keys.size()));
    }
    w.round_maps_per_s.push_back(static_cast<double>(stream.size()) / e.wall_s);
    epoch_s.push_back(e.wall_s);
    w.cpu_ms += e.cpu_ms;
    w.samples.insert(w.samples.end(), e.samples.begin(), e.samples.end());
    parse_us.insert(parse_us.end(), e.parse_us.begin(), e.parse_us.end());
    w.tally.merge(e.tally);
    r.problems.insert(r.problems.end(), e.problems.begin(), e.problems.end());
    w.exact_attempted += e.exact_attempted;
    w.exact_proven += e.exact_proven;
    ++epochs;
  }
  w.registry = RegistryReading::take().since(before);
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    w.added_gates[in.keys[k].label] = reference[k].cost_f;
  }
  check_untraced(r);
  report_end_to_end(r, w, setup_s);
  r.notes.push_back(std::to_string(epochs) + " epochs of " + std::to_string(kRequestsPerEpoch) +
                    "+ requests over " + std::to_string(in.keys.size()) + " keys; epoch s min " +
                    std::to_string(*std::min_element(epoch_s.begin(), epoch_s.end())) +
                    " median " + std::to_string(median(epoch_s)) + " max " +
                    std::to_string(*std::max_element(epoch_s.begin(), epoch_s.end())));

  // Cache-key cost, timed apart from the closed loop.
  std::vector<Circuit> circuits;
  for (const CatalogKey& key : in.keys) {
    circuits.push_back(qasm::parse(in.texts[key.text], in.names[key.text]));
  }
  constexpr int kKeyReps = 20;
  const auto k0 = Clock::now();
  std::size_t key_bytes = 0;
  for (int rep = 0; rep < kKeyReps; ++rep) {
    for (std::size_t k = 0; k < in.keys.size(); ++k) {
      key_bytes += api::MappingService::cache_key(circuits[k], in.archs[in.keys[k].arch],
                                                  in.options(in.keys[k].kind))
                       .size();
    }
  }
  const double key_us = ms_since(k0) * 1e3 / static_cast<double>(kKeyReps * in.keys.size());
  if (key_bytes == 0) r.problems.push_back("empty cache keys");

  Traced t;
  if (o.trace) {
    t = traced_pass([&] {
      std::int64_t n = 0;
      for (int epoch = 0; epoch < kMinEpochs; ++epoch) {
        const auto stream = zipf_stream(in.keys.size(), sub_seed(o.seed, 90 + epoch));
        EpochResult e = run_epoch(in, reference, stream);
        for (const auto& p : e.problems) r.problems.push_back("traced " + p);
        n += static_cast<std::int64_t>(stream.size());
      }
      return n;
    });
  }
  report_layers(r, w, t);

  std::vector<double> hit_us;
  std::vector<double> miss_ms;
  for (const Sample& s : w.samples) {
    if (s.solved) {
      miss_ms.push_back(s.ms);
    } else {
      hit_us.push_back(s.ms * 1e3);
    }
  }
  const RegistryReading& d = w.registry;
  auto& m = r.per_layer;
  put(m, "api.service.hit_ratio",
      ratio(d["qxmap_service_cache_hits_total"], d["qxmap_service_requests_total"]), "ratio");
  put(m, "api.service.dedup_joins_per_epoch",
      ratio(d["qxmap_service_dedup_joins_total"], static_cast<double>(epochs)), "count");
  put(m, "api.service.solves_per_epoch",
      ratio(d["qxmap_service_solves_total"], static_cast<double>(epochs)), "count");
  put(m, "api.service.hit_us_p50", median(hit_us), "us");
  put(m, "api.service.miss_ms_p50", median(miss_ms), "ms");
  put(m, "api.service.key_us_mean", key_us, "us");
  put(m, "qasm.parse_us_mean", mean_of(parse_us), "us");
  return r;
}

// ---------------------------------------------------------------------------
// heavyhex_route: SU(4) stress circuits on the heavy-hex built-ins.
// ---------------------------------------------------------------------------

constexpr int kCircuitsPerShape = 4;  ///< seeded circuits per (architecture, layers)
constexpr int kMinPasses = 2;

struct HexInput {
  std::string label;
  std::size_t arch = 0;
  Circuit circuit;
  bool warm_up = false;  ///< mapped once per method in set-up
};

struct HexJob {
  std::size_t input = 0;
  Kind kind = Kind::Sabre;
  std::string label;
};

Report heavyhex_route(const RunOptions& o) {
  Report r;
  std::vector<arch::CouplingMap> archs;
  std::vector<HexInput> inputs;
  std::vector<HexJob> jobs;
  MapOptions sabre;
  sabre.method = Method::Sabre;
  MapOptions layer_weight;
  layer_weight.method = Method::LayerWeight;
  auto options = [&](Kind k) -> const MapOptions& { return k == Kind::Sabre ? sabre : layer_weight; };

  const double setup_s = timed_setup(r, [&] {
    archs = {arch::ibm_hex27(), arch::ibm_hex65(), arch::ibm_hex127()};
    inputs.clear();
    jobs.clear();
    for (std::size_t a = 0; a < archs.size(); ++a) {
      for (const int layers : {2, 4}) {
        for (int k = 0; k < kCircuitsPerShape; ++k) {
          const std::string label =
              archs[a].name() + "/L" + std::to_string(layers) + "#" + std::to_string(k);
          inputs.push_back({label, a,
                            bench::su4_random_circuit(archs[a].num_physical(), layers,
                                                      sub_seed(o.seed, inputs.size()), label),
                            layers == 2 && k == 0});
        }
      }
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      jobs.push_back({i, Kind::Sabre, inputs[i].label + "/sabre"});
      jobs.push_back({i, Kind::LayerWeight, inputs[i].label + "/layer_weight"});
    }
    // One request per (architecture, method), on a 2-layer input.
    for (const HexJob& job : jobs) {
      const HexInput& in = inputs[job.input];
      if (!in.warm_up) continue;
      const auto res = qxmap::map(in.circuit, archs[in.arch], options(job.kind));
      if (std::string p = result_problem(res, in.circuit, archs[in.arch]); !p.empty()) {
        throw std::runtime_error("warm-up " + job.label + ": " + p);
      }
    }
  });

  // Routing is seed-deterministic: every pass, traced or not, must repeat
  // the first pass's result for each job.
  std::map<std::string, std::pair<long long, int>> first;
  std::int64_t request = 0;
  auto run_pass = [&](Window& win, std::uint64_t pass) {
    const auto pass_t0 = Clock::now();
    for (const std::size_t j : shuffled(jobs.size(), sub_seed(o.seed, 1000 + pass))) {
      const HexJob& job = jobs[j];
      const HexInput& in = inputs[job.input];
      std::string problem;
      try {
        const auto start = Clock::now();
        exact::MappingResult res;
        {
          obs::Span span("bench.map", "bench");
          span.attr("request", static_cast<long long>(request++));
          span.attr("input", job.label);
          res = qxmap::map(in.circuit, archs[in.arch], options(job.kind));
        }
        win.samples.push_back({job.label, ms_since(start), job.kind, true, res.swaps_inserted});
        win.added_gates[job.label] = res.cost_f;
        problem = result_problem(res, in.circuit, archs[in.arch]);
        const auto routed = std::pair{res.cost_f, res.swaps_inserted};
        const auto [it, inserted] = first.emplace(job.label, routed);
        if (problem.empty() && !inserted && it->second != routed) {
          problem = "routing changed between passes";
        }
      } catch (const std::exception& e) {
        problem = std::string("threw: ") + e.what();
      }
      record(r, win, job.label, problem);
    }
    win.round_maps_per_s.push_back(static_cast<double>(jobs.size()) / (ms_since(pass_t0) / 1e3));
  };

  Window w;
  w.min_samples = static_cast<std::int64_t>(kMinPasses * jobs.size());
  const RegistryReading before = RegistryReading::take();
  const double cpu0 = cpu_ms();
  const auto t0 = Clock::now();
  std::uint64_t passes = 0;
  while (passes < kMinPasses || ms_since(t0) < o.seconds * 1e3) run_pass(w, passes++);
  w.cpu_ms = cpu_ms() - cpu0;
  w.registry = RegistryReading::take().since(before);
  check_untraced(r);
  report_end_to_end(r, w, setup_s);

  Traced t;
  if (o.trace) {
    t = traced_pass([&] {
      Window traced;
      run_pass(traced, passes);
      return static_cast<std::int64_t>(traced.samples.size());
    });
  }
  report_layers(r, w, t);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"exact_table1", "service_replay",
                                                 "heavyhex_route"};
  return names;
}

Report run_workload(const RunOptions& options) {
  if (options.workload == "exact_table1") return exact_table1(options);
  if (options.workload == "service_replay") return service_replay(options);
  if (options.workload == "heavyhex_route") return heavyhex_route(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace qxbench
