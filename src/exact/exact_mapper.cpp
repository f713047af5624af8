#include "exact/exact_mapper.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
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

/// What one instance's task leaves behind; each task writes only its own
/// slot. `route.status` and `route.cost` drive the reduction for every
/// engine. The Dp engine fills the whole route; the SAT engines keep the
/// decoded model and its swaps(π) table, and only the winner's model is
/// turned into a route.
struct InstanceOutcome {
  LayoutRoute route;
  std::optional<Encoding::Solution> model;
  std::shared_ptr<const arch::SwapCostTable> table;
};

bool has_model(reason::Status status) {
  return status == reason::Status::Optimal || status == reason::Status::Feasible;
}

/// Lowers `target` to `value` unless it already holds something no larger.
void lower_to(std::atomic<long long>& target, long long value) {
  long long cur = target.load(std::memory_order_acquire);
  while (value < cur && !target.compare_exchange_weak(cur, value, std::memory_order_acq_rel)) {
  }
}

/// The route a decoded model describes, in the instance's local qubits: the
/// model's initial layout, then before each permutation point the SWAPs of
/// the chosen permutation, exactly as `table.swap_sequence` orders them
/// (the Router orients a bidirected SWAP by its argument order).
/// \throws std::logic_error when the walked layout leaves the model's x
/// variables.
LayoutRoute route_from_model(const Encoding::Solution& model, reason::Status status,
                             const arch::SwapCostTable& table,
                             const std::vector<std::size_t>& points) {
  LayoutRoute route;
  route.status = status;
  route.cost = model.cost_f;
  route.initial = model.layouts.front();
  route.swaps.resize(model.layouts.size());
  std::vector<int> layout = route.initial;
  std::size_t point_idx = 0;
  for (std::size_t k = 0; k < model.layouts.size(); ++k) {
    if (point_idx < points.size() && points[point_idx] == k) {
      route.swaps[k] = table.swap_sequence(model.point_perms[point_idx++]);
      for (const auto& [a, b] : route.swaps[k]) layout = Router::swapped(std::move(layout), a, b);
    }
    if (layout != model.layouts[k]) {
      throw std::logic_error("map_exact: reconstructed layout diverges from model");
    }
  }
  return route;
}

/// Replays an instance-local route on the whole architecture; `subset` maps
/// each local physical qubit to its global one.
Router lift(const Circuit& circuit, const arch::CouplingMap& cm, const LayoutRoute& route,
            const std::vector<int>& subset) {
  const auto global = [&](int local) { return subset[static_cast<std::size_t>(local)]; };
  std::vector<int> layout;
  for (const int local : route.initial) layout.push_back(global(local));
  Router router(circuit, cm, std::move(layout));
  std::size_t k = 0;  // CNOT index
  for (const auto& g : circuit) {
    if (g.is_cnot()) {
      for (const auto& [a, b] : route.swaps[k]) router.swap(global(a), global(b));
      ++k;
    }
    router.emit(g);
  }
  return router;
}

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

/// The tail every emitted result shares: Router::finish (which runs the
/// GF(2) skeleton check), then the full statevector check on small
/// architectures, then the wall time.
MappingResult close_result(Router route, MappingResult res, const Circuit& circuit,
                           const arch::CouplingMap& cm, const CostModel& costs,
                           const ExactOptions& options, Clock::time_point start) {
  res = std::move(route).finish(std::move(res), costs, options.verify, start);
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
    return close_result(std::move(route), std::move(res), circuit, cm, costs, options, start);
  }

  const auto points = permutation_points(cnots, options.strategy, cm);

  // Instance list (Sec. 4.1), and the instances that can win the reduction:
  // one per isomorphism class of induced coupling graphs, minus the classes
  // a lower-index class dominates (arch::subset_classes has the argument).
  std::vector<std::vector<int>> instances;
  std::vector<std::size_t> solve{0};  // indices into `instances`, ascending
  const bool subsets = options.use_subsets && n < m;
  if (subsets) {
    obs::Span span("exact.subsets", "exact");
    instances = arch::connected_subsets(cm, n);
    span.attr("count", instances.size());
    if (instances.empty()) {
      throw std::invalid_argument("map_exact: no connected subset of the required size");
    }
    arch::SubsetClasses classes = arch::subset_classes(cm, instances);
    solve = std::move(classes.solve);
    span.attr("classes", classes.classes);
    span.attr("solved", solve.size());
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

  // --- One task per solved instance on the process-wide executor ----------
  //
  // The full protocol — shard lifecycle, shared-bound memory ordering and
  // the determinism argument — is specified in docs/concurrency.md; the
  // comments here are the short version.
  //
  // Each solved instance becomes one task on the shared ShardExecutor (so shards
  // of concurrent map() calls interleave through a single pool instead of
  // one pool per call); `options.num_threads` survives as this request's
  // concurrency cap. Tasks pop in subset-index order. Every task finds its
  // instance's Eq. (5) optimum — the Dp engine with search_layouts, the SAT
  // engines by encode → minimize → decode — and the reduction below keeps
  // the lowest cost, ties to the lowest subset index. The selected
  // (cost, index) pair depends neither on the thread count nor on the pop
  // order. When an instance has a cost-0 model —
  // the objective's lower bound — instances at *higher* indices are
  // skipped: they can at best tie and lose the index tie-break. Lower
  // indices still run, preserving the tie-break winner.
  const bool dp = options.engine == reason::EngineKind::Dp;
  const std::size_t tasks = solve.size();
  // Only several solves share a prefix, publish bounds to each other, and
  // need the canonical re-solve.
  const bool shared = tasks > 1;
  const auto deadline = start + options.budget;  // one deadline for the sweep
  constexpr long long kNone = std::numeric_limits<long long>::max();

  // --- SAT-only inputs: warm start, shared prefix, live bound -------------
  //
  // Each executing thread owns its engine (the CDCL solver is not
  // thread-safe). A shared atomic bound carries the best model cost found
  // so far: shards start their Eq. (5) search with objective <= bound
  // enforced, and keep polling it at engine checkpoints *mid-solve*,
  // aborting branches that can no longer beat the incumbent. Bounds are
  // inclusive and never drop below the final best cost, so a shard's
  // reported optimum is independent of the bounds it observed; its *model*
  // is not, and the winner's is re-derived canonically after the reduction.

  // Warm start: with the whole architecture as the one instance, under the
  // All strategy, the symbolic formulation can express every swap schedule,
  // so the greedy route's cost is a feasible objective value and seeds the
  // bound (see greedy_route). A lone connected subset is not enough: the
  // greedy route may leave it.
  std::optional<Router> warm;
  long long warm_cost = kNone;
  if (!dp && !subsets && options.strategy == PermutationStrategy::All) {
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
  if (!dp && shared) {
    obs::Span span("exact.prefix", "exact");
    prefix.emplace(Encoding::build_prefix(cnots, n, n, points));
  }

  std::atomic<long long> shared_bound{warm_cost};

  // One engine per executing thread, reused across this request's instances
  // via the prefix snapshot — but owned by *this* stack frame, not the
  // executor thread: the engines (and the bound-source closures they hold
  // over `shared_bound`) are destroyed with the request, before the atomics
  // they capture.
  std::mutex slots_mutex;
  std::unordered_map<std::thread::id, std::unique_ptr<reason::ReasoningEngine>> slots;

  const auto solve_with_engine = [&](std::size_t i, InstanceOutcome& out) {
    obs::Span shard_span("exact.shard", "exact");
    shard_span.attr("instance", i);
    std::unique_ptr<reason::ReasoningEngine>& slot = [&]() -> auto& {
      const std::lock_guard<std::mutex> guard(slots_mutex);
      // References into an unordered_map stay valid across rehash.
      return slots[std::this_thread::get_id()];
    }();
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
      span.attr("vars", enc->num_variables());
      span.attr("clauses", enc->num_clauses());
    }
    const long long bound = shared_bound.load(std::memory_order_acquire);
    if (bound != kNone) engine.set_upper_bound(bound);
    if (shared) {
      // Live view of the shared bound: the engine re-tightens its GTE /
      // PB constraint whenever a sibling publishes a cheaper model.
      // Pointless with a single solve (no sibling can publish), and
      // skipping it there spares the engine its checkpoint overhead —
      // the Z3 backend in particular trades contiguous search time for
      // poll opportunities (see Z3Engine::kPollInterval).
      engine.set_bound_source([&shared_bound] {
        return shared_bound.load(std::memory_order_acquire);
      });
    }
    const auto left = std::max(std::chrono::milliseconds(1),
                               std::chrono::duration_cast<std::chrono::milliseconds>(
                                   deadline - Clock::now()));
    reason::Outcome outcome;
    {
      obs::Span span("exact.solve", "exact");
      span.attr("budget_ms", static_cast<long long>(left.count()));
      outcome = engine.minimize(left);
      span.attr("status", reason::to_string(outcome.status));
    }
    out.route.status = outcome.status;
    if (!has_model(outcome.status)) return;
    out.model = enc->decode();
    out.route.cost = out.model->cost_f;
    lower_to(shared_bound, out.route.cost);
  };

  std::vector<InstanceOutcome> outcomes(tasks);  // outcomes[t]: instance solve[t]
  std::atomic<long long> zero_task{kNone};  // lowest task with a cost-0 model
  std::atomic<bool> failed{false};
  const auto solve_instance = [&](std::size_t t) {
    if (failed.load(std::memory_order_acquire)) return;
    if (static_cast<long long>(t) > zero_task.load(std::memory_order_acquire)) return;
    InstanceOutcome& out = outcomes[t];
    const std::size_t i = solve[t];
    try {
      if (dp) {
        obs::Span span("exact.solve", "exact");
        span.attr("engine", "dp");
        span.attr("instance", i);
        out.route = search_layouts(cnots, n, cm.induced(instances[i]), points, costs, deadline);
        span.attr("status", reason::to_string(out.route.status));
      } else {
        solve_with_engine(i, out);
      }
      count_solved_instance();
      if (has_model(out.route.status) && out.route.cost == 0) {
        lower_to(zero_task, static_cast<long long>(t));
      }
    } catch (...) {
      // Make the remaining tasks no-ops so siblings stop promptly; the
      // executor hands the first exception to run_to_completion.
      failed.store(true, std::memory_order_release);
      throw;
    }
  };
  ShardExecutor& executor = ShardExecutor::instance();
  executor.run_to_completion(
      executor.submit(solve_instance, tasks, resolve_num_threads(options.num_threads, tasks)));

  // --- Deterministic reduction -------------------------------------------
  // Keep the lowest cost, ties to the lowest index, and stop after the first
  // instance with a cost-0 model: everything after it was skipped or can
  // only lose the tie-break. `instances_solved` counts the solves up to
  // that cut. `open`: some instance in range ran out of time
  // or holds a model not proven optimal, so it may hide a cheaper route.
  // Without a winner no instance holds a model, and `open` then means some
  // instance is Unknown.
  std::optional<std::size_t> best;
  bool open = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const LayoutRoute& route = outcomes[i].route;
    ++res.instances_solved;
    open = open || route.status == reason::Status::Unknown ||
           route.status == reason::Status::Feasible;
    if (!has_model(route.status)) continue;
    if (!best || route.cost < outcomes[*best].route.cost) best = i;
    if (route.cost == 0) break;
  }

  if (!best) {
    if (warm) {
      // Budget expired before any model under the seeded bound was found;
      // fall back to the warm start itself (feasible by construction).
      res.status = reason::Status::Feasible;
      res = close_result(std::move(*warm), std::move(res), circuit, cm, costs, options, start);
      if (options.verify) {
        res.verify_message += "; warm-start fallback (engine found no model in budget)";
      }
      return res;
    }
    res.status = open ? reason::Status::Unknown : reason::Status::Unsat;
    res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return res;
  }

  InstanceOutcome& win = outcomes[*best];
  const std::vector<int>& subset = instances[solve[*best]];

  // --- Canonical model re-derivation (SAT only) ---------------------------
  // A shard's decoded model can depend on the bound it happened to observe
  // (the bound changes the search path, and several optimal models may
  // exist), while its reported *cost* cannot. With more than one solve the
  // winner is therefore re-solved once under the canonical bound C* —
  // fully determined by the inputs — so the emitted layouts are
  // bit-identical at every thread count. A model of cost C* is known to
  // exist and nothing below it does, so the first model under the bound is
  // taken without proving the optimum again. Its allowance,
  // `budget / solves`, depends only on the inputs.
  if (!dp && shared) {
    obs::Span span("exact.canonical_resolve", "exact");
    const long long canonical = win.route.cost;
    span.attr("cost", canonical);
    const arch::CouplingMap induced = cm.induced(subset);
    auto engine = reason::make_engine(options.engine);
    const Encoding enc(*engine, cnots, n, induced, *win.table, points, costs);
    engine->set_upper_bound(canonical);
    const reason::Outcome outcome = engine->find_model(std::chrono::milliseconds(
        std::max<long long>(1, options.budget.count() / static_cast<long long>(tasks))));
    if (has_model(outcome.status)) {
      Encoding::Solution sol = enc.decode();
      if (sol.cost_f <= canonical) win.model = std::move(sol);
    }
    // Otherwise the budget expired mid-re-solve; keep the phase-1 model
    // (correct, merely not canonical — determinism is forfeit on timeouts
    // anyway).
  }

  Router router = [&] {
    obs::Span span("exact.reconstruct", "exact");
    if (!dp) win.route = route_from_model(*win.model, win.route.status, *win.table, points);
    return lift(circuit, cm, win.route, subset);
  }();
  res.status = open ? reason::Status::Feasible : reason::Status::Optimal;
  res = close_result(std::move(router), std::move(res), circuit, cm, costs, options, start);

  // Consistency: the emitted insertions must reproduce the route's objective
  // under the resolved weights (gate units and objective units coincide only
  // for GateCount with derived weights).
  if (res.objective_cost != win.route.cost) {
    throw std::logic_error("map_exact: emitted gate overhead disagrees with the route cost");
  }
  return res;
}

}  // namespace qxmap::exact
