#include "exact/exact_mapper.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "arch/subsets.hpp"
#include "arch/swap_cost_cache.hpp"
#include "arch/swap_costs.hpp"
#include "exact/encoder.hpp"
#include "exact/reference_search.hpp"
#include "exact/shard_executor.hpp"
#include "exact/router.hpp"
#include "exact/strategies.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/equivalence.hpp"

namespace qxmap::exact {

namespace {

using Clock = std::chrono::steady_clock;

/// Best instance found across subsets.
struct InstanceSolution {
  Encoding::Solution solution;
  std::vector<int> subset;  // local physical index -> global physical qubit
  std::shared_ptr<const arch::SwapCostTable> table;
  reason::Status status;
};

/// Rebuilds the route from a decoded model: the model's initial layout
/// (lifted from subset-local to global physical qubits), then before each
/// permutation point the SWAPs of the scheduled permutation.
Router reconstruct(const Circuit& original, const arch::CouplingMap& cm,
                   const InstanceSolution& best, const std::vector<std::size_t>& points) {
  const auto& subset = best.subset;
  // The model's layout before CNOT k: logical j -> global physical qubit.
  const auto model_layout = [&](std::size_t k) {
    std::vector<int> layout;
    for (const int local : best.solution.layouts[k]) {
      layout.push_back(subset[static_cast<std::size_t>(local)]);
    }
    return layout;
  };

  Router route(original, cm, model_layout(0));
  std::size_t k = 0;          // CNOT index
  std::size_t point_idx = 0;  // index into points / point_perms
  for (const auto& g : original) {
    if (g.is_cnot()) {
      // First apply the permutation scheduled before this gate, if any.
      if (point_idx < points.size() && points[point_idx] == k) {
        const Permutation& pi = best.solution.point_perms[point_idx];
        for (const auto& [a, b] : best.table->swap_sequence(pi)) {
          route.swap(subset[static_cast<std::size_t>(a)], subset[static_cast<std::size_t>(b)]);
        }
        ++point_idx;
      }
      // Cross-check the walked layout against the model's x variables.
      if (route.layout() != model_layout(k)) {
        throw std::logic_error("map_exact: reconstructed layout diverges from model");
      }
      ++k;
    }
    route.emit(g);
  }
  return route;
}

/// Deterministic greedy warm start: routes the circuit with shortest-path
/// SWAP chains from the identity layout (ties toward the lowest-numbered
/// neighbour). Its added cost is a feasible value of Eq. (5)'s objective —
/// the paper's Sec. 3.3 observation that F can "simply [be] set to a fixed
/// value" — so it seeds the shared bound before the first solve: the GTE is
/// clamped at the warm-start cost from the outset instead of at whatever
/// first model the unbounded search wanders into. Only sound when the
/// symbolic instance can express any swap placement (PermutationStrategy::
/// All over the full architecture); restricted strategies and proper
/// subsets may not contain the greedy schedule.
Router greedy_route(const Circuit& circuit, const arch::CouplingMap& cm) {
  const auto dist_handle = arch::SwapCostCache::instance().distances(cm);
  Router route(circuit, cm);
  for (const auto& g : circuit) {
    if (g.is_cnot()) route.walk(g.control, g.target, *dist_handle);
    route.emit(g);
  }
  return route;
}

/// Per-subset outcome collected by the executor tasks. Each task writes its
/// own slot, so no slot-level synchronisation is needed.
struct InstanceOutcome {
  reason::Status status = reason::Status::Unknown;
  std::optional<Encoding::Solution> solution;
  std::shared_ptr<const arch::SwapCostTable> table;
};

std::size_t resolve_num_threads(int requested, std::size_t num_instances) {
  if (requested < 0) {
    throw std::invalid_argument("map_exact: num_threads must be >= 0");
  }
  std::size_t threads = requested == 0
                            ? std::max(1u, std::thread::hardware_concurrency())
                            : static_cast<std::size_t>(requested);
  return std::min(threads, num_instances);
}

/// Counts one instance whose solve ran to a verdict; zero-cost skips and
/// the no-op tasks after a failure do not count.
void count_solved_instance() {
  static obs::Counter& instances_total = obs::MetricsRegistry::instance().counter(
      "qxmap_exact_instances_solved_total", "Subset-instance shard tasks run to a verdict");
  instances_total.inc();
}

/// The tail every solved request shares: the full statevector check on
/// small architectures (the router already checked the GF(2) skeleton),
/// then the wall time.
MappingResult close_result(MappingResult res, const Circuit& circuit, const arch::CouplingMap& cm,
                           const ExactOptions& options, Clock::time_point start) {
  if (options.verify) {
    obs::Span span("exact.verify", "exact");
    std::string deep_msg = "statevector check skipped (architecture too large)";
    if (cm.num_physical() <= options.deep_verify_max_qubits) {
      const auto eq = sim::check_mapped_circuit(circuit, res.mapped, res.initial_layout,
                                                res.final_layout);
      res.verified = res.verified && eq.equivalent;
      deep_msg = eq.message;
    }
    res.verify_message += "; " + deep_msg;
    span.attr("verified", res.verified);
  }

  res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return res;
}

/// The EngineKind::Dp branch of map_exact: one search_layouts call per
/// instance on the shared executor, the lowest-(cost, index) reduction, and
/// reconstruction through the Router. Each instance is a pure function of
/// its inputs and the search has no bound to share, so this branch needs no
/// warm start, shared prefix, live bound or canonical re-solve: results are
/// bit-identical at any thread count as long as no instance reaches the
/// deadline (docs/concurrency.md).
MappingResult map_with_dp(const Circuit& circuit, const arch::CouplingMap& cm,
                          const ExactOptions& options, const CostModel& costs,
                          const std::vector<Gate>& cnots, const std::vector<std::size_t>& points,
                          const std::vector<std::vector<int>>& instances, MappingResult res,
                          Clock::time_point start) {
  constexpr long long kNoIndex = std::numeric_limits<long long>::max();
  const auto deadline = start + options.budget;
  std::vector<LayoutRoute> routes(instances.size());
  // Lowest index proving cost 0: later instances can at best tie and lose
  // the index tie-break, so they are skipped.
  std::atomic<long long> zero_index{kNoIndex};
  const auto solve_instance = [&](std::size_t i) {
    if (static_cast<long long>(i) > zero_index.load(std::memory_order_acquire)) return;
    {
      obs::Span span("exact.solve", "exact");
      span.attr("engine", "dp");
      span.attr("instance", i);
      routes[i] = search_layouts(cnots, circuit.num_qubits(), cm.induced(instances[i]), points,
                                 costs, deadline);
      span.attr("status", reason::to_string(routes[i].status));
    }
    count_solved_instance();
    if (routes[i].status == reason::Status::Optimal && routes[i].cost == 0) {
      long long zi = zero_index.load(std::memory_order_acquire);
      const auto me = static_cast<long long>(i);
      while (me < zi && !zero_index.compare_exchange_weak(zi, me, std::memory_order_acq_rel)) {
      }
    }
  };
  ShardExecutor& executor = ShardExecutor::instance();
  executor.run_to_completion(executor.submit(
      solve_instance, instances.size(), resolve_num_threads(options.num_threads, instances.size())));

  // Deterministic reduction, as in the SAT branch: truncate after the first
  // zero-cost instance, then keep the lowest cost, ties to the lowest index.
  std::size_t effective = instances.size();
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (routes[i].status == reason::Status::Optimal && routes[i].cost == 0) {
      effective = i + 1;
      break;
    }
  }
  std::optional<std::size_t> best;
  bool any_unknown = false;
  for (std::size_t i = 0; i < effective; ++i) {
    ++res.instances_solved;
    if (routes[i].status == reason::Status::Unknown) any_unknown = true;
    if (routes[i].status != reason::Status::Optimal) continue;
    if (!best || routes[i].cost < routes[*best].cost) best = i;
  }
  if (!best) {
    res.status = any_unknown ? reason::Status::Unknown : reason::Status::Unsat;
    res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return res;
  }

  const LayoutRoute& route = routes[*best];
  const std::vector<int>& subset = instances[*best];
  Router router = [&] {
    obs::Span span("exact.reconstruct", "exact");
    std::vector<int> layout;
    for (const int local : route.initial) layout.push_back(subset[static_cast<std::size_t>(local)]);
    Router r(circuit, cm, std::move(layout));
    std::size_t k = 0;  // CNOT index
    for (const auto& g : circuit) {
      if (g.is_cnot()) {
        for (const auto& [a, b] : route.swaps[k]) {
          r.swap(subset[static_cast<std::size_t>(a)], subset[static_cast<std::size_t>(b)]);
        }
        ++k;
      }
      r.emit(g);
    }
    return r;
  }();
  // An instance that ran out of time may have hidden a cheaper route.
  res.status = any_unknown ? reason::Status::Feasible : reason::Status::Optimal;
  res = std::move(router).finish(std::move(res), costs, options.verify, start);
  if (res.objective_cost != route.cost) {
    throw std::logic_error("map_exact: emitted gate overhead disagrees with DP cost");
  }
  return close_result(std::move(res), circuit, cm, options, start);
}

}  // namespace

MappingResult map_exact(const Circuit& circuit, const arch::CouplingMap& cm,
                        const ExactOptions& options) {
  const auto start = Clock::now();
  const int n = circuit.num_qubits();
  const int m = cm.num_physical();
  // Exact subsets may sit inside one component of a disconnected graph.
  if (needs_swap_expansion(circuit, cm, "map_exact", /*require_connected=*/false)) {
    return map_exact(circuit.with_swaps_expanded(), cm, options);
  }

  obs::Span map_span("exact.map", "exact");
  map_span.attr("circuit", circuit.name());
  map_span.attr("arch", cm.name());
  static obs::Counter& maps_total = obs::MetricsRegistry::instance().counter(
      "qxmap_exact_maps_total", "map_exact calls reaching the solver pipeline");
  maps_total.inc();

  MappingResult res;
  // Report the engine that actually runs, not the requested kind: without
  // Z3 support, make_engine(EngineKind::Z3) degrades to the CDCL backend.
  res.engine_name = reason::to_string(reason::running_engine(options.engine));
  const CostModel costs = options.costs.resolved(cm);
  res.objective = to_string(costs.objective);

  // CNOT skeleton.
  std::vector<Gate> cnots;
  for (const auto& g : circuit) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  if (cnots.empty()) {
    // Nothing to route: the identity placement is optimal at zero cost.
    Router route(circuit, cm);
    for (const auto& g : circuit) route.emit(g);
    res.status = reason::Status::Optimal;
    res.permutation_points = 1;
    return std::move(route).finish(std::move(res), costs, options.verify, start);
  }

  const auto points = permutation_points(cnots, options.strategy, cm);

  // Instance list (Sec. 4.1).
  std::vector<std::vector<int>> instances;
  if (options.use_subsets && n < m) {
    obs::Span span("exact.subsets", "exact");
    instances = arch::connected_subsets(cm, n);
    span.attr("count", instances.size());
    if (instances.empty()) {
      throw std::invalid_argument("map_exact: no connected subset of the required size");
    }
  } else {
    if (m > 8) {
      throw std::invalid_argument(
          "map_exact: architectures with m > 8 require use_subsets (Π enumeration)");
    }
    std::vector<int> all(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) all[static_cast<std::size_t>(i)] = i;
    instances.push_back(std::move(all));
  }
  map_span.attr("instances", instances.size());
  res.permutation_points = static_cast<int>(points.size()) + 1;

  if (options.engine == reason::EngineKind::Dp) {
    return map_with_dp(circuit, cm, options, costs, cnots, points, instances, std::move(res),
                       start);
  }

  // Budget: one shared deadline for the whole instance sweep; each solve
  // gets the time left to it.
  const auto overall_deadline = start + options.budget;

  // --- Shard the subset instances through the process-wide executor ------
  //
  // The full protocol — shard lifecycle, shared-bound memory ordering and
  // the determinism argument — is specified in docs/concurrency.md; the
  // comments here are the short version.
  //
  // Each instance becomes one task on the shared ShardExecutor (so shards
  // of concurrent map() calls interleave through a single pool instead of
  // one pool per call); `options.num_threads` survives as this request's
  // concurrency cap. Tasks pop in subset-index order. Each executing thread
  // owns its engine (the CDCL solver is not thread-safe), scoped to *this
  // request* so the bound-source closures below never outlive the atomics
  // they read.
  // A shared atomic bound carries the best model cost found so far: shards
  // start their Eq. (5) search with objective <= bound enforced, and keep
  // polling it at engine checkpoints *mid-solve*, aborting branches that
  // can no longer beat the incumbent.
  //
  // Determinism: the reduction below selects the lowest cost with ties
  // broken on the lowest subset index. A shard's reported optimum is
  // independent of the bounds it observed (bounds are inclusive and never
  // drop below the final best cost), so the selected (cost, index) pair is
  // bit-identical at every thread count and in any pop order; the
  // winning *model* is then re-derived canonically after the reduction.
  // When a shard proves a zero-cost solution — the objective's lower
  // bound — instances at *higher* indices are skipped: they can at best tie
  // and lose the index tie-break. Lower indices still run, preserving the
  // tie-break winner.
  constexpr long long kNoBound = std::numeric_limits<long long>::max();

  // Warm start: with a single instance under the All strategy, the symbolic
  // formulation can express every swap schedule, so the greedy route's cost
  // is a feasible objective value and seeds the bound (see greedy_route).
  std::optional<Router> warm;
  long long warm_cost = kNoBound;
  if (instances.size() == 1 && options.strategy == PermutationStrategy::All) {
    obs::Span span("exact.warm_start", "exact");
    warm = greedy_route(circuit, cm);
    // The bound lives in resolved objective units, not emitted-gate units —
    // they differ under ErrorWeighted and under explicit weight overrides.
    warm_cost = costs.result_cost(warm->swaps(), warm->reversed());
    span.attr("cost", warm_cost);
  }

  // Shared encoding prefix (Sec. 4.1): every subset instance of an n-qubit
  // circuit induces an n-qubit coupling map, so the x/y skeleton — Eq. (1)
  // and Eq. (3) — is byte-identical across instances. Build it once as an
  // engine-agnostic clause list; shards replay it into their engine for the
  // first instance and reset_to_prefix() for every later one (backends
  // without snapshot support just replay again from the list, still
  // skipping the per-instance constraint derivation).
  std::optional<Encoding::Prefix> prefix;
  if (instances.size() > 1) {
    obs::Span span("exact.prefix", "exact");
    prefix.emplace(Encoding::build_prefix(cnots, n, n, points));
  }

  std::atomic<long long> shared_bound{warm_cost};
  std::atomic<long long> zero_index{kNoBound};  // lowest index proving cost 0
  std::atomic<bool> failed{false};
  std::vector<InstanceOutcome> outcomes(instances.size());
  std::mutex error_mutex;
  std::exception_ptr worker_error;

  // One engine per executing thread, reused across this request's instances
  // via the prefix snapshot — but owned by *this* stack frame, not the
  // executor thread: the engines (and the bound-source closures they hold
  // over `shared_bound`) are destroyed with the request, before the atomics
  // they capture.
  std::mutex slots_mutex;
  std::unordered_map<std::thread::id, std::unique_ptr<reason::ReasoningEngine>> slots;

  const auto solve_instance = [&](std::size_t i) {
    if (failed.load(std::memory_order_acquire)) return;
    if (static_cast<long long>(i) > zero_index.load(std::memory_order_acquire)) return;
    obs::Span shard_span("exact.shard", "exact");
    shard_span.attr("instance", i);
    try {
      std::unique_ptr<reason::ReasoningEngine>& slot = [&]() -> auto& {
        const std::lock_guard<std::mutex> guard(slots_mutex);
        // References into an unordered_map stay valid across rehash.
        return slots[std::this_thread::get_id()];
      }();
      InstanceOutcome& out = outcomes[i];
      const arch::CouplingMap induced = cm.induced(instances[i]);
      out.table = arch::SwapCostCache::instance().table(induced);
      const bool holds_prefix = slot && prefix && slot->reset_to_prefix();
      if (!holds_prefix) slot = reason::make_engine(options.engine);
      reason::ReasoningEngine& engine = *slot;
      std::optional<Encoding> enc;
      {
        obs::Span span("exact.encode", "exact");
        span.attr("prefix_reused", holds_prefix);
        if (prefix) {
          enc.emplace(engine, *prefix, induced, *out.table, costs, holds_prefix);
        } else {
          enc.emplace(engine, cnots, n, induced, *out.table, points, costs);
        }
      }
      const long long bound = shared_bound.load(std::memory_order_acquire);
      if (bound != kNoBound) engine.set_upper_bound(bound);
      if (instances.size() > 1) {
        // Live view of the shared bound: the engine re-tightens its GTE /
        // PB constraint whenever a sibling publishes a cheaper model.
        // Pointless with a single instance (no sibling can publish), and
        // skipping it there spares the engine its checkpoint overhead —
        // the Z3 backend in particular trades contiguous search time for
        // poll opportunities (see Z3Engine::kPollInterval).
        engine.set_bound_source([&shared_bound] {
          return shared_bound.load(std::memory_order_acquire);
        });
      }
      const auto left = std::max(std::chrono::milliseconds(1),
                                 std::chrono::duration_cast<std::chrono::milliseconds>(
                                     overall_deadline - Clock::now()));
      reason::Outcome outcome;
      {
        obs::Span span("exact.solve", "exact");
        span.attr("budget_ms", static_cast<long long>(left.count()));
        outcome = engine.minimize(left);
        span.attr("status", reason::to_string(outcome.status));
      }
      count_solved_instance();
      out.status = outcome.status;
      if (outcome.status != reason::Status::Optimal &&
          outcome.status != reason::Status::Feasible) {
        return;
      }
      out.solution = enc->decode();
      const long long cost = out.solution->cost_f;
      long long cur = shared_bound.load(std::memory_order_acquire);
      while (cost < cur &&
             !shared_bound.compare_exchange_weak(cur, cost, std::memory_order_acq_rel)) {
      }
      if (cost == 0) {
        long long zi = zero_index.load(std::memory_order_acquire);
        const auto me = static_cast<long long>(i);
        while (me < zi && !zero_index.compare_exchange_weak(zi, me, std::memory_order_acq_rel)) {
        }
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> guard(error_mutex);
        if (!worker_error) worker_error = std::current_exception();
      }
      // Make the remaining tasks no-ops so siblings stop promptly instead
      // of solving instances whose results the rethrow below will discard.
      failed.store(true, std::memory_order_release);
    }
  };

  ShardExecutor& executor = ShardExecutor::instance();
  executor.run_to_completion(executor.submit(
      solve_instance, instances.size(), resolve_num_threads(options.num_threads, instances.size())));
  if (worker_error) std::rethrow_exception(worker_error);

  // --- Deterministic reduction -------------------------------------------
  // Truncate at the first zero-cost subset (everything after it was either
  // skipped or can only lose the tie-break), then scan in index order.
  std::size_t effective = instances.size();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].solution && outcomes[i].solution->cost_f == 0) {
      effective = i + 1;
      break;
    }
  }

  std::optional<InstanceSolution> best;
  bool any_feasible_not_optimal = false;
  bool any_unknown = false;
  for (std::size_t i = 0; i < effective; ++i) {
    InstanceOutcome& out = outcomes[i];
    ++res.instances_solved;
    if (out.status == reason::Status::Unsat) continue;
    if (out.status == reason::Status::Unknown) {
      any_unknown = true;
      continue;
    }
    if (out.status == reason::Status::Feasible) any_feasible_not_optimal = true;
    if (!out.solution) continue;
    if (!best || out.solution->cost_f < best->solution.cost_f) {
      best = InstanceSolution{std::move(*out.solution), instances[i], std::move(out.table),
                              out.status};
    }
  }

  if (!best) {
    if (warm) {
      // Budget expired before any model under the seeded bound was found;
      // fall back to the warm start itself (feasible by construction).
      res.status = reason::Status::Feasible;
      res = std::move(*warm).finish(std::move(res), costs, options.verify, start);
      if (options.verify) {
        res.verify_message += "; warm-start fallback (engine found no model in budget)";
      }
      return res;
    }
    res.status = any_unknown ? reason::Status::Unknown : reason::Status::Unsat;
    res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return res;
  }

  // --- Canonical model re-derivation -------------------------------------
  // A shard's decoded model can depend on the bound it happened to observe
  // (the bound changes the search path, and several optimal models may
  // exist), while its reported *cost* cannot. With more than one instance
  // the winner is therefore re-solved once under the canonical bound C* —
  // fully determined by the inputs — so the emitted layouts are
  // bit-identical at every thread count. The bounded re-solve is cheap: a
  // model of cost C* is known to exist and nothing below it does. Its
  // allowance, `budget / instances`, depends only on the inputs.
  if (instances.size() > 1) {
    obs::Span span("exact.canonical_resolve", "exact");
    const long long canonical = best->solution.cost_f;
    span.attr("cost", canonical);
    const arch::CouplingMap induced = cm.induced(best->subset);
    auto engine = reason::make_engine(options.engine);
    const Encoding enc(*engine, cnots, n, induced, *best->table, points, costs);
    engine->set_upper_bound(canonical);
    const reason::Outcome outcome = engine->minimize(std::chrono::milliseconds(
        std::max<long long>(1, options.budget.count() / static_cast<long long>(instances.size()))));
    if (outcome.status == reason::Status::Optimal ||
        outcome.status == reason::Status::Feasible) {
      Encoding::Solution sol = enc.decode();
      if (sol.cost_f <= canonical) best->solution = std::move(sol);
    }
    // Otherwise the budget expired mid-re-solve; keep the phase-1 model
    // (correct, merely not canonical — determinism is forfeit on timeouts
    // anyway).
  }

  Router route = [&] {
    obs::Span span("exact.reconstruct", "exact");
    return reconstruct(circuit, cm, *best, points);
  }();
  res.status = (any_feasible_not_optimal || any_unknown) ? reason::Status::Feasible
                                                         : reason::Status::Optimal;
  res = std::move(route).finish(std::move(res), costs, options.verify, start);

  // Consistency: the emitted insertions must reproduce the model's objective
  // under the resolved weights (gate units and objective units coincide only
  // for GateCount with derived weights).
  if (res.objective_cost != best->solution.cost_f) {
    throw std::logic_error("map_exact: emitted gate overhead disagrees with model cost");
  }
  return close_result(std::move(res), circuit, cm, options, start);
}

}  // namespace qxmap::exact
