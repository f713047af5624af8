/// Mapping-service harness (api/service.hpp): cache-hit bit-identity, LRU
/// eviction order, options-digest equivalence classes (performance knobs
/// must share entries; result-affecting options must fork them), in-flight
/// deduplication under concurrency (exactly one solve for N identical
/// requests), failure propagation without cache poisoning, and a mixed
/// multi-architecture hammer meant to run under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "arch/architectures.hpp"
#include "arch/coupling_json.hpp"
#include "bench_circuits/generators.hpp"
#include "metric_delta.hpp"
#include "obs/trace.hpp"

namespace qxmap {
namespace {

using api::MappingService;
using exact::MappingResult;
using testutil::CounterDelta;

/// The service's registry counters, read as deltas over one test.
struct ServiceCounters {
  CounterDelta requests{"qxmap_service_requests_total"};
  CounterDelta hits{"qxmap_service_cache_hits_total"};
  CounterDelta coalesced{"qxmap_service_dedup_joins_total"};
  CounterDelta misses{"qxmap_service_cache_misses_total"};
  CounterDelta solves{"qxmap_service_solves_total"};
  CounterDelta failures{"qxmap_service_failures_total"};
  CounterDelta evictions{"qxmap_service_cache_evictions_total"};
};

Circuit small_circuit(const std::string& name, std::uint64_t seed = 7) {
  Circuit c = bench::random_circuit(3, 4, 3, seed);
  c.set_name(name);
  return c;
}

MapOptions exact_options() {
  MapOptions o;
  o.exact.use_subsets = true;
  o.exact.budget = std::chrono::milliseconds(30000);
  return o;
}

/// The cache-hit identity: every result field must equal the populating
/// solve's except `from_cache`. `seconds` is the stored value, so it is
/// equal too.
void expect_hit_identical(const MappingResult& fresh, const MappingResult& hit) {
  EXPECT_TRUE(hit.from_cache);
  EXPECT_FALSE(fresh.from_cache);
  EXPECT_EQ(hit.status, fresh.status);
  EXPECT_EQ(hit.cost_f, fresh.cost_f);
  EXPECT_EQ(hit.swaps_inserted, fresh.swaps_inserted);
  EXPECT_EQ(hit.cnots_reversed, fresh.cnots_reversed);
  EXPECT_EQ(hit.initial_layout, fresh.initial_layout);
  EXPECT_EQ(hit.final_layout, fresh.final_layout);
  EXPECT_EQ(hit.instances_solved, fresh.instances_solved);
  EXPECT_EQ(hit.permutation_points, fresh.permutation_points);
  EXPECT_EQ(hit.engine_name, fresh.engine_name);
  EXPECT_EQ(hit.verified, fresh.verified);
  EXPECT_EQ(hit.verify_message, fresh.verify_message);
  EXPECT_EQ(hit.mapped, fresh.mapped);
  EXPECT_EQ(hit.routed_skeleton, fresh.routed_skeleton);
  EXPECT_EQ(hit.seconds, fresh.seconds);  // stored, not re-measured
}

TEST(MappingServiceCache, HitIsBitIdenticalToThePopulatingSolve) {
  MappingService service(4);
  const Circuit c = small_circuit("svc-identity");
  const auto cm = arch::ibm_qx4();
  const ServiceCounters counters;
  const MappingResult fresh = service.map(c, cm, exact_options());
  const MappingResult hit = service.map(c, cm, exact_options());
  expect_hit_identical(fresh, hit);
  EXPECT_EQ(counters.requests(), 2u);
  EXPECT_EQ(counters.hits(), 1u);
  EXPECT_EQ(counters.misses(), 1u);
  EXPECT_EQ(counters.solves(), 1u);
}

TEST(MappingServiceCache, CachedHitEmitsCacheHitSpanAndNoSolverSpans) {
  // With tracing on, a warm hit must show up as a `service.cache_hit` span
  // and must NOT re-enter any solver layer: zero exact.*, cdcl.*, or
  // executor.* spans may be emitted by the hit.
  MappingService service(4);
  const Circuit c = small_circuit("svc-trace-hit");
  const auto cm = arch::ibm_qx4();
  (void)service.map(c, cm, exact_options());  // populate the cache untraced

  const bool was_enabled = obs::TraceRecorder::enabled();
  obs::TraceRecorder::set_enabled(false);
  obs::TraceRecorder::instance().clear();
  obs::TraceRecorder::set_enabled(true);
  const MappingResult hit = service.map(c, cm, exact_options());
  obs::TraceRecorder::set_enabled(was_enabled);

  EXPECT_TRUE(hit.from_cache);
  const auto events = obs::TraceRecorder::instance().snapshot();
  bool saw_request = false;
  bool saw_cache_hit = false;
  for (const auto& e : events) {
    if (e.name == "service.map") saw_request = true;
    if (e.name == "service.cache_hit") saw_cache_hit = true;
    const bool solver_span = e.name.rfind("exact.", 0) == 0 ||
                             e.name.rfind("cdcl.", 0) == 0 ||
                             e.name.rfind("z3.", 0) == 0 ||
                             e.name.rfind("executor.", 0) == 0;
    EXPECT_FALSE(solver_span) << "warm hit emitted solver span " << e.name;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_cache_hit);
  obs::TraceRecorder::instance().clear();
}

TEST(MappingServiceCache, HitRestampsNamesForTheRequestingCircuit) {
  // Two circuits with identical gate streams but different names share a
  // fingerprint; the hit must carry the *requester's* name, as a fresh
  // solve would.
  MappingService service(4);
  const auto cm = arch::ibm_qx4();
  const MappingResult first = service.map(small_circuit("alpha"), cm, exact_options());
  const MappingResult second = service.map(small_circuit("beta"), cm, exact_options());
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(first.mapped.name(), "alpha/mapped");
  EXPECT_EQ(second.mapped.name(), "beta/mapped");
  EXPECT_EQ(second.routed_skeleton.name(), "beta/routed-skeleton");
  EXPECT_EQ(second.mapped.gates(), first.mapped.gates());
}

TEST(MappingServiceCache, LruEvictionDropsLeastRecentlyUsed) {
  MappingService service(2);
  const CounterDelta evictions("qxmap_service_cache_evictions_total");
  const auto cm = arch::ibm_qx4();
  const Circuit a = small_circuit("lru-a", 11);
  const Circuit b = small_circuit("lru-b", 22);
  const Circuit c = small_circuit("lru-c", 33);
  const MapOptions o = exact_options();

  (void)service.map(a, cm, o);  // cache: [a]
  (void)service.map(b, cm, o);  // cache: [b, a]
  EXPECT_EQ(service.size(), 2u);
  EXPECT_TRUE(service.map(a, cm, o).from_cache);  // a refreshed: [a, b]
  (void)service.map(c, cm, o);                    // evicts b:    [c, a]
  EXPECT_EQ(service.size(), 2u);
  EXPECT_EQ(evictions(), 1u);
  EXPECT_TRUE(service.map(a, cm, o).from_cache);   // a survived
  EXPECT_TRUE(service.map(c, cm, o).from_cache);   // c cached
  EXPECT_FALSE(service.map(b, cm, o).from_cache);  // b was the eviction victim
}

TEST(MappingServiceCache, ZeroCapacityNeverCaches) {
  MappingService service(0);
  const CounterDelta solves("qxmap_service_solves_total");
  const Circuit c = small_circuit("svc-nocache");
  const auto cm = arch::ibm_qx4();
  EXPECT_FALSE(service.map(c, cm, exact_options()).from_cache);
  EXPECT_FALSE(service.map(c, cm, exact_options()).from_cache);
  EXPECT_EQ(service.size(), 0u);
  EXPECT_EQ(solves(), 2u);
}

TEST(MappingServiceCache, OnlyFinalExactResultsAreCached) {
  // An exact solve cut short by its budget (Feasible) is not the answer a
  // retry would give — num_threads is outside the key, so a later request
  // may run with more threads — and must be solved again. An Optimal result
  // and a heuristic's (always Feasible) result are final and replay.
  std::atomic<int> calls{0};
  const CounterDelta solves("qxmap_service_solves_total");
  reason::Status exact_status = reason::Status::Feasible;
  MappingService service(4, [&](const Circuit& c, const arch::CouplingMap&, const MapOptions& o) {
    ++calls;
    MappingResult r;
    r.mapped = Circuit(5, c.name() + "/mapped");
    r.routed_skeleton = Circuit(5, c.name() + "/routed-skeleton");
    r.status = o.method == Method::Exact ? exact_status : reason::Status::Feasible;
    return r;
  });
  const Circuit c = small_circuit("svc-final");
  const auto cm = arch::ibm_qx4();
  const MapOptions exact = exact_options();

  EXPECT_EQ(service.map(c, cm, exact).status, reason::Status::Feasible);
  EXPECT_EQ(service.size(), 0u);
  const MappingResult again = service.map(c, cm, exact);
  EXPECT_FALSE(again.from_cache);
  EXPECT_EQ(calls.load(), 2);

  exact_status = reason::Status::Optimal;
  EXPECT_FALSE(service.map(c, cm, exact).from_cache);
  EXPECT_EQ(calls.load(), 3);
  const MappingResult hit = service.map(c, cm, exact);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.status, reason::Status::Optimal);
  EXPECT_EQ(calls.load(), 3);

  MapOptions sabre = exact;
  sabre.method = Method::Sabre;
  EXPECT_FALSE(service.map(c, cm, sabre).from_cache);
  EXPECT_TRUE(service.map(c, cm, sabre).from_cache);
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(solves(), 4u);
}

TEST(MappingServiceKey, PerformanceKnobsDoNotForkEntries) {
  const Circuit c = small_circuit("svc-key");
  const auto cm = arch::ibm_qx4();
  MapOptions base = exact_options();
  base.exact.num_threads = 1;

  MapOptions threads8 = base;
  threads8.exact.num_threads = 8;
  EXPECT_EQ(MappingService::cache_key(c, cm, base), MappingService::cache_key(c, cm, threads8));

  // End to end: a 1-thread miss then an 8-thread request — the latter must
  // hit the former's entry.
  MappingService service(4);
  const CounterDelta solves("qxmap_service_solves_total");
  EXPECT_FALSE(service.map(c, cm, base).from_cache);
  EXPECT_TRUE(service.map(c, cm, threads8).from_cache);
  EXPECT_EQ(solves(), 1u);
}

TEST(MappingServiceKey, ResultAffectingOptionsForkEntries) {
  const Circuit c = small_circuit("svc-fork");
  const auto cm = arch::ibm_qx4();
  const MapOptions base = exact_options();
  const std::string base_key = MappingService::cache_key(c, cm, base);

  MapOptions budget = base;
  budget.exact.budget = std::chrono::milliseconds(12345);
  EXPECT_NE(MappingService::cache_key(c, cm, budget), base_key);

  MapOptions strategy = base;
  strategy.exact.strategy = exact::PermutationStrategy::OddGates;
  EXPECT_NE(MappingService::cache_key(c, cm, strategy), base_key);

  MapOptions costs = base;
  costs.exact.costs.reverse_cost = 5;
  EXPECT_NE(MappingService::cache_key(c, cm, costs), base_key);

  // The default Dp engine and an explicit Cdcl request prove the same cost
  // but may route it differently, so they must not share an entry.
  ASSERT_EQ(base.exact.engine, reason::EngineKind::Dp);
  MapOptions cdcl = base;
  cdcl.exact.engine = reason::EngineKind::Cdcl;
  EXPECT_NE(MappingService::cache_key(c, cm, cdcl), base_key);
  EXPECT_NE(base_key.find("engine=dp"), std::string::npos) << base_key;
  // Without Z3 support an explicit Z3 request runs, and is keyed as, Cdcl.
  MapOptions z3 = base;
  z3.exact.engine = reason::EngineKind::Z3;
  EXPECT_EQ(MappingService::cache_key(c, cm, z3) == MappingService::cache_key(c, cm, cdcl),
            !reason::z3_available());

  MapOptions method = base;
  method.method = Method::Sabre;
  EXPECT_NE(MappingService::cache_key(c, cm, method), base_key);

  MapOptions seed = method;
  seed.sabre.seed = 99;
  EXPECT_NE(MappingService::cache_key(c, cm, seed), MappingService::cache_key(c, cm, method));

  // Architecture forks too, same circuit and options.
  EXPECT_NE(MappingService::cache_key(c, arch::ibm_qx2(), base), base_key);
}

TEST(MappingServiceKey, CircuitNameDoesNotForkEntries) {
  const auto cm = arch::ibm_qx4();
  EXPECT_EQ(MappingService::cache_key(small_circuit("x"), cm, exact_options()),
            MappingService::cache_key(small_circuit("y"), cm, exact_options()));
}

TEST(MappingServiceKey, CostObjectiveForksEntriesForEveryMethod) {
  // Regression: a gate-count result must never be replayed for an
  // error-weighted request (or vice versa) — for ANY mapping method.
  const Circuit c = small_circuit("svc-objective");
  const auto cm = arch::ibm_qx4();
  for (const Method method : {Method::Exact, Method::StochasticSwap, Method::AStar,
                              Method::Sabre, Method::LayerWeight}) {
    MapOptions gate = exact_options();
    gate.method = method;
    MapOptions weighted = gate;
    switch (method) {
      case Method::Exact:
        weighted.exact.costs.objective = exact::CostObjective::ErrorWeighted;
        break;
      case Method::StochasticSwap:
        weighted.stochastic.costs.objective = exact::CostObjective::ErrorWeighted;
        break;
      case Method::AStar:
        weighted.astar.costs.objective = exact::CostObjective::ErrorWeighted;
        break;
      case Method::Sabre:
        weighted.sabre.costs.objective = exact::CostObjective::ErrorWeighted;
        break;
      case Method::LayerWeight:
        weighted.layer_weight.costs.objective = exact::CostObjective::ErrorWeighted;
        break;
    }
    EXPECT_NE(MappingService::cache_key(c, cm, gate),
              MappingService::cache_key(c, cm, weighted))
        << "method " << static_cast<int>(method);
  }
}

TEST(MappingServiceKey, ErrorWeightedKeysSeeTheArchitectureCalibration) {
  // Two JSON maps with identical structure but different calibration share
  // a structural fingerprint — under ErrorWeighted the noise fingerprint
  // must fork the cache key anyway; under GateCount it must NOT (the rates
  // are irrelevant to the solve, so the entries should be shared).
  const auto quiet = arch::CouplingMap::from_json(
      R"({"qubits": 3, "edges": [{"control": 0, "target": 1, "error": 0.01}, [1, 2]]})");
  const auto noisy = arch::CouplingMap::from_json(
      R"({"qubits": 3, "edges": [{"control": 0, "target": 1, "error": 0.08}, [1, 2]]})");
  ASSERT_EQ(quiet.fingerprint(), noisy.fingerprint());
  const Circuit c = small_circuit("svc-calibration");

  MapOptions gate = exact_options();
  EXPECT_EQ(MappingService::cache_key(c, quiet, gate),
            MappingService::cache_key(c, noisy, gate));

  MapOptions weighted = exact_options();
  weighted.exact.costs.objective = exact::CostObjective::ErrorWeighted;
  EXPECT_NE(MappingService::cache_key(c, quiet, weighted),
            MappingService::cache_key(c, noisy, weighted));
}

TEST(MappingServiceKey, CostObjectiveForksBehaviorallyNotJustTextually) {
  // End to end with a counting solver: one request per objective must mean
  // two solves, never a replay.
  std::atomic<int> calls{0};
  MappingService service(4, [&](const Circuit& c, const arch::CouplingMap&, const MapOptions&) {
    ++calls;
    MappingResult r;
    r.mapped = Circuit(5, c.name() + "/mapped");
    r.routed_skeleton = Circuit(5, c.name() + "/routed-skeleton");
    r.status = reason::Status::Optimal;
    return r;
  });
  const Circuit c = small_circuit("svc-objective-e2e");
  const auto cm = arch::ibm_qx4();
  MapOptions gate = exact_options();
  MapOptions weighted = exact_options();
  weighted.exact.costs.objective = exact::CostObjective::ErrorWeighted;
  EXPECT_FALSE(service.map(c, cm, gate).from_cache);
  EXPECT_FALSE(service.map(c, cm, weighted).from_cache);
  EXPECT_EQ(calls.load(), 2);
  // Each objective replays from its own entry afterwards.
  EXPECT_TRUE(service.map(c, cm, gate).from_cache);
  EXPECT_TRUE(service.map(c, cm, weighted).from_cache);
  EXPECT_EQ(calls.load(), 2);
}

// --- In-flight deduplication --------------------------------------------

/// Solver stub with a controllable gate so tests decide exactly when the
/// leader's solve completes (and therefore how many callers coalesce).
struct GatedSolver {
  std::atomic<int> calls{0};
  std::atomic<bool> release{false};

  MappingService::SolveFn fn() {
    return [this](const Circuit& c, const arch::CouplingMap&, const MapOptions&) {
      ++calls;
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      MappingResult r;
      r.mapped = Circuit(5, c.name() + "/mapped");
      r.routed_skeleton = Circuit(5, c.name() + "/routed-skeleton");
      r.status = reason::Status::Optimal;
      r.cost_f = 42;
      return r;
    };
  }
};

TEST(MappingServiceDedup, NIdenticalConcurrentRequestsShareOneSolve) {
  constexpr int kCallers = 8;
  GatedSolver solver;
  MappingService service(4, solver.fn());
  const ServiceCounters counters;
  const Circuit c = small_circuit("svc-dedup");
  const auto cm = arch::ibm_qx4();

  std::vector<std::thread> callers;
  std::vector<MappingResult> results(kCallers);
  std::atomic<int> done{0};
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = service.map(c, cm, exact_options());
      ++done;
    });
  }
  // Wait until every caller has either joined the in-flight solve or hit
  // the cache, then let the leader finish.
  while (counters.requests() < kCallers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  solver.release = true;
  for (auto& t : callers) t.join();

  EXPECT_EQ(solver.calls.load(), 1);  // exactly one solve
  EXPECT_EQ(counters.requests(), static_cast<std::uint64_t>(kCallers));
  EXPECT_EQ(counters.misses(), 1u);
  EXPECT_EQ(counters.solves(), 1u);
  // Every non-leader either coalesced onto the in-flight solve or (having
  // arrived after completion) hit the cache.
  EXPECT_EQ(counters.coalesced() + counters.hits(), static_cast<std::uint64_t>(kCallers - 1));
  for (const auto& r : results) {
    EXPECT_EQ(r.cost_f, 42);
    EXPECT_EQ(r.status, reason::Status::Optimal);
  }
}

TEST(MappingServiceDedup, FailingSolveIsRetriedNotCached) {
  std::atomic<int> calls{0};
  MappingService service(4, [&](const Circuit& c, const arch::CouplingMap&, const MapOptions&) {
    if (++calls == 1) throw std::runtime_error("transient solver failure");
    MappingResult r;
    r.mapped = Circuit(5, c.name() + "/mapped");
    r.routed_skeleton = Circuit(5, c.name() + "/routed-skeleton");
    r.status = reason::Status::Optimal;
    return r;
  });
  const Circuit c = small_circuit("svc-retry");
  const auto cm = arch::ibm_qx4();
  const ServiceCounters counters;
  EXPECT_THROW((void)service.map(c, cm, exact_options()), std::runtime_error);
  EXPECT_EQ(service.size(), 0u);  // nothing cached
  EXPECT_EQ(counters.failures(), 1u);
  // The retry leads a fresh solve (no poisoned in-flight entry to join).
  const MappingResult r = service.map(c, cm, exact_options());
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(r.status, reason::Status::Optimal);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(counters.solves(), 1u);
}

TEST(MappingServiceDedup, FailurePropagatesToEveryJoiner) {
  GatedSolver solver;
  std::atomic<int> calls{0};
  MappingService service(4, [&](const Circuit&, const arch::CouplingMap&, const MapOptions&) {
    ++calls;
    while (!solver.release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    throw std::runtime_error("shared failure");
    return MappingResult{};  // unreachable
  });
  const Circuit c = small_circuit("svc-joinfail");
  const auto cm = arch::ibm_qx4();
  const CounterDelta requests("qxmap_service_requests_total");

  constexpr int kCallers = 4;
  std::atomic<int> threw{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      try {
        (void)service.map(c, cm, exact_options());
      } catch (const std::runtime_error&) {
        ++threw;
      }
    });
  }
  while (requests() < kCallers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  solver.release = true;
  for (auto& t : callers) t.join();
  EXPECT_EQ(threw.load(), kCallers);  // leader and every joiner
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(service.size(), 0u);
}

// --- Mixed hammer (race detector workload) ------------------------------

/// Many threads, four architectures, a handful of circuit shapes, repeated
/// keys: every data path of the service (hit, miss, coalesce, evict) under
/// real solver traffic. Assertions are deliberately coarse — the point of
/// this test is being race-free under `-fsanitize=thread` (the CI tsan
/// job), not the exact interleaving counts.
TEST(MappingServiceStress, MixedHammerAcrossArchitecturesIsRaceFree) {
  MappingService service(6);
  const ServiceCounters counters;
  const std::vector<arch::CouplingMap> archs = {arch::ibm_qx2(), arch::ibm_qx4(),
                                                arch::ibm_qx5(), arch::ibm_tokyo()};
  MapOptions o = exact_options();
  o.exact.budget = std::chrono::milliseconds(30000);

  constexpr int kThreads = 8;
  constexpr int kIterations = 6;
  std::atomic<int> completed{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int it = 0; it < kIterations; ++it) {
        // Shared seeds across threads force hit/coalesce collisions.
        const auto seed = static_cast<std::uint64_t>(1 + (t + it) % 3);
        const auto& cm = archs[static_cast<std::size_t>((t + it) % archs.size())];
        Circuit c = bench::random_circuit(3, 3, 2, seed);
        c.set_name("hammer-" + std::to_string(seed));
        const MappingResult r = service.map(c, cm, o);
        if (r.status == reason::Status::Optimal || r.status == reason::Status::Feasible) {
          ++completed;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(completed.load(), kThreads * kIterations);
  EXPECT_EQ(counters.requests(), static_cast<std::uint64_t>(kThreads * kIterations));
  EXPECT_EQ(counters.hits() + counters.coalesced() + counters.misses(), counters.requests());
  EXPECT_EQ(counters.solves() + counters.failures(), counters.misses());
  EXPECT_EQ(counters.failures(), 0u);
}

}  // namespace
}  // namespace qxmap
