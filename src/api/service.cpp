#include "api/service.hpp"

#include <stdexcept>
#include <utility>

#include "common/strings.hpp"
#include "exact/shard_executor.hpp"
#include "ir/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reason/engine.hpp"

namespace qxmap::api {

namespace {

// Registry handles for the service counters (docs/observability.md), the
// only record of what each request did. requests = hits + coalesced +
// misses, and misses = solves + failures once every solve has finished.
struct ServiceMetrics {
  obs::Counter& requests;
  obs::Counter& hits;
  obs::Counter& coalesced;
  obs::Counter& misses;
  obs::Counter& solves;
  obs::Counter& failures;
  obs::Counter& evictions;

  static ServiceMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static ServiceMetrics m{
        reg.counter("qxmap_service_requests_total", "MappingService::map() calls"),
        reg.counter("qxmap_service_cache_hits_total", "Requests served from the result cache"),
        reg.counter("qxmap_service_dedup_joins_total",
                    "Requests coalesced onto an in-flight identical solve"),
        reg.counter("qxmap_service_cache_misses_total", "Requests that led a fresh solve"),
        reg.counter("qxmap_service_solves_total", "Leader solves completed successfully"),
        reg.counter("qxmap_service_failures_total", "Leader solves that threw"),
        reg.counter("qxmap_service_cache_evictions_total", "LRU evictions from the result cache"),
    };
    return m;
  }
};

/// Cost-model segment shared by every method block. The objective always
/// participates; the ErrorWeighted inputs (fallback rates, scale, and the
/// architecture's calibration fingerprint) only when that objective is
/// active — under GateCount they cannot affect results, and hashing them
/// would needlessly split entries.
std::string cost_model_digest(const exact::CostModel& c, const arch::CouplingMap& architecture) {
  std::string d;
  d += ";objective=" + exact::to_string(c.objective);
  d += ";swap_cost=" + std::to_string(c.swap_cost);
  d += ";reverse_cost=" + std::to_string(c.reverse_cost);
  if (c.objective == exact::CostObjective::ErrorWeighted) {
    d += ";cx_err=" + format_fixed(c.cnot_error, 12);
    d += ";1q_err=" + format_fixed(c.single_qubit_error, 12);
    d += ";err_scale=" + std::to_string(c.error_scale);
    d += ";noise=";
    d += architecture.noise_fingerprint().empty() ? "-" : architecture.noise_fingerprint();
  }
  return d;
}

/// Digest of every result-affecting option of the *active* method block.
/// Textual on purpose: keys show up verbatim in logs and cache dumps, and a
/// field-by-field string is auditable in a way a second-level hash is not.
/// Excluded by contract (docs/concurrency.md — it changes wall time, never
/// results): exact.num_threads.
std::string options_digest(const MapOptions& o, const arch::CouplingMap& architecture) {
  std::string d;
  switch (o.method) {
    case Method::Exact: {
      const auto& e = o.exact;
      // Hash the engine that actually runs ("dp", "cdcl" or "z3"): without
      // Z3 support, make_engine(EngineKind::Z3) degrades to the CDCL
      // backend, so the two requested kinds produce identical results and
      // must share an entry.
      d += "exact;engine=" + reason::to_string(reason::running_engine(e.engine));
      d += ";strategy=" + exact::to_string(e.strategy);
      d += ";subsets=" + std::to_string(e.use_subsets ? 1 : 0);
      d += ";budget_ms=" + std::to_string(e.budget.count());
      d += cost_model_digest(e.costs, architecture);
      d += ";verify=" + std::to_string(e.verify ? 1 : 0);
      d += ";deep_verify_max=" + std::to_string(e.deep_verify_max_qubits);
      return d;
    }
    case Method::StochasticSwap: {
      const auto& s = o.stochastic;
      d += "stochastic;seed=" + std::to_string(s.seed);
      d += ";trials=" + std::to_string(s.trials);
      d += ";runs=" + std::to_string(s.runs);
      d += cost_model_digest(s.costs, architecture);
      d += ";verify=" + std::to_string(s.verify ? 1 : 0);
      return d;
    }
    case Method::AStar: {
      const auto& a = o.astar;
      d += "astar;max_expansions=" + std::to_string(a.max_expansions);
      d += cost_model_digest(a.costs, architecture);
      d += ";verify=" + std::to_string(a.verify ? 1 : 0);
      return d;
    }
    case Method::Sabre: {
      const auto& s = o.sabre;
      d += "sabre;rounds=" + std::to_string(s.bidirectional_rounds);
      d += ";esw=" + format_fixed(s.extended_set_weight, 12);
      d += ";ess=" + std::to_string(s.extended_set_size);
      d += ";decay=" + format_fixed(s.decay, 12);
      d += ";seed=" + std::to_string(s.seed);
      d += cost_model_digest(s.costs, architecture);
      d += ";verify=" + std::to_string(s.verify ? 1 : 0);
      return d;
    }
    case Method::LayerWeight: {
      const auto& l = o.layer_weight;
      d += "layerweight;iterations=" + std::to_string(l.iterations);
      d += ";lookahead=" + std::to_string(l.lookahead_layers);
      d += ";decay=" + format_fixed(l.decay, 12);
      d += ";seed=" + std::to_string(l.seed);
      d += cost_model_digest(l.costs, architecture);
      d += ";verify=" + std::to_string(l.verify ? 1 : 0);
      return d;
    }
  }
  throw std::invalid_argument("MappingService: bad Method");
}

/// Cached entries keep the leader's circuit names ("<leader>/mapped"); a
/// hit from a same-fingerprint, differently-named circuit restamps them so
/// the caller sees its own name, exactly as a fresh solve would.
void restamp_names(exact::MappingResult& r, const Circuit& circuit) {
  r.mapped.set_name(circuit.name() + "/mapped");
  r.routed_skeleton.set_name(circuit.name() + "/routed-skeleton");
}

/// Whether `result` is the answer every later identical request would get.
/// An exact result cut short by its budget (Feasible or Unknown) is not: a
/// retry — perhaps at more threads, which the key ignores — may prove the
/// optimum, so only Optimal and Unsat exact results enter the cache.
bool is_final(const MapOptions& options, const exact::MappingResult& result) {
  return options.method != Method::Exact || result.status == reason::Status::Optimal ||
         result.status == reason::Status::Unsat;
}

}  // namespace

MappingService::MappingService(std::size_t capacity, SolveFn solve)
    : capacity_(capacity),
      solve_(solve ? std::move(solve)
                   : [](const Circuit& c, const arch::CouplingMap& a, const MapOptions& o) {
                       return qxmap::map(c, a, o);
                     }) {}

MappingService& MappingService::instance() {
  // Touch the executor first so it outlives the service by static-
  // destruction order: a leader solve draining at exit must find the
  // executor alive.
  (void)exact::ShardExecutor::instance();
  static MappingService service;
  return service;
}

std::string MappingService::cache_key(const Circuit& circuit,
                                      const arch::CouplingMap& architecture,
                                      const MapOptions& options) {
  return fingerprint_string(circuit) + "|" + architecture.fingerprint() + "|" +
         options_digest(options, architecture);
}

exact::MappingResult MappingService::map(const Circuit& circuit,
                                         const arch::CouplingMap& architecture,
                                         const MapOptions& options) {
  obs::Span span("service.map", "service");
  span.attr("circuit", circuit.name());
  span.attr("arch", architecture.name());
  ServiceMetrics& metrics = ServiceMetrics::get();
  const std::string key = cache_key(circuit, architecture, options);
  std::promise<exact::MappingResult> promise;
  std::shared_future<exact::MappingResult> join;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Counted under the lock, together with the classification below: no
    // solve can finish between a request showing in this counter and that
    // request joining the in-flight entry.
    metrics.requests.inc();
    if (const auto it = cache_.find(key); it != cache_.end()) {
      metrics.hits.inc();
      obs::Span hit("service.cache_hit", "service");
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      exact::MappingResult result = it->second.result;
      result.from_cache = true;
      restamp_names(result, circuit);
      return result;
    }
    if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
      metrics.coalesced.inc();
      join = it->second;  // joiner: wait outside the lock
    } else {
      metrics.misses.inc();
      in_flight_.emplace(key, promise.get_future().share());
    }
  }
  if (join.valid()) {
    obs::Span wait("service.dedup_join", "service");
    // Throws the leader's exception if the shared solve failed.
    exact::MappingResult result = join.get();
    restamp_names(result, circuit);
    return result;
  }
  return solve_as_leader(key, circuit, architecture, options, std::move(promise));
}

exact::MappingResult MappingService::solve_as_leader(
    const std::string& key, const Circuit& circuit, const arch::CouplingMap& architecture,
    const MapOptions& options, std::promise<exact::MappingResult> promise) {
  exact::MappingResult result;
  obs::Span span("service.solve", "service");
  try {
    result = solve_(circuit, architecture, options);
  } catch (...) {
    {
      // Remove the registry entry *before* fulfilling the promise: a
      // request arriving after the failure leads a fresh solve instead of
      // joining (and re-observing) a dead one. Nothing enters the cache.
      const std::lock_guard<std::mutex> lock(mutex_);
      ServiceMetrics::get().failures.inc();
      in_flight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ServiceMetrics::get().solves.inc();
    in_flight_.erase(key);
    if (capacity_ > 0 && is_final(options, result) && cache_.find(key) == cache_.end()) {
      while (cache_.size() >= capacity_) {
        ServiceMetrics::get().evictions.inc();
        cache_.erase(lru_.back());
        lru_.pop_back();
      }
      lru_.push_front(key);
      cache_.emplace(key, Entry{result, lru_.begin()});
    }
  }
  promise.set_value(result);
  return result;
}

std::size_t MappingService::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void MappingService::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
  lru_.clear();
}

}  // namespace qxmap::api
