#include "heuristic/stochastic_swap.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "arch/distances.hpp"
#include "arch/swap_cost_cache.hpp"
#include "common/rng.hpp"
#include "exact/router.hpp"
#include "ir/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::heuristic {

namespace {

/// All CNOTs of `gates` executable (coupled in some direction) under layout?
bool layer_executable(const std::vector<int>& layout, const std::vector<Gate>& gates,
                      const arch::CouplingMap& cm) {
  return std::all_of(gates.begin(), gates.end(), [&](const Gate& g) {
    return !g.is_cnot() || cm.coupled(layout[static_cast<std::size_t>(g.control)],
                                      layout[static_cast<std::size_t>(g.target)]);
  });
}

/// One randomized greedy trial (the core of Qiskit 0.4's layer_permutation):
/// returns the SWAP edge list making all `pairs` adjacent, or nullopt.
std::optional<std::vector<std::pair<int, int>>> trial_search(
    const std::vector<std::pair<int, int>>& logical_pairs, std::vector<int> layout,
    const arch::CouplingMap& cm, const arch::DistanceMatrix& dist, Rng& rng) {
  const int m = cm.num_physical();
  // Perturbed squared-distance cost matrix (multiplicative noise, as in the
  // original randomized algorithm).
  std::vector<double> xi(static_cast<std::size_t>(m) * static_cast<std::size_t>(m));
  for (int u = 0; u < m; ++u) {
    for (int v = 0; v < m; ++v) {
      const double d = dist.hops(u, v);
      const double noise = 1.0 + 0.2 * (rng.next_double() - 0.5);
      xi[static_cast<std::size_t>(u) * static_cast<std::size_t>(m) + static_cast<std::size_t>(v)] =
          noise * d * d;
    }
  }
  const auto cost_of = [&](const std::vector<int>& lay) {
    double c = 0;
    for (const auto& [qc, qt] : logical_pairs) {
      c += xi[static_cast<std::size_t>(lay[static_cast<std::size_t>(qc)]) *
                  static_cast<std::size_t>(m) +
              static_cast<std::size_t>(lay[static_cast<std::size_t>(qt)])];
    }
    return c;
  };
  const auto done = [&](const std::vector<int>& lay) {
    return std::all_of(logical_pairs.begin(), logical_pairs.end(), [&](const auto& pr) {
      return cm.coupled(lay[static_cast<std::size_t>(pr.first)],
                        lay[static_cast<std::size_t>(pr.second)]);
    });
  };

  std::vector<std::pair<int, int>> swaps;
  double cost = cost_of(layout);
  const int max_steps = 2 * m * m;
  for (int step = 0; step < max_steps; ++step) {
    if (done(layout)) return swaps;
    double best_cost = cost;
    std::pair<int, int> best_edge{-1, -1};
    for (const auto& [a, b] : cm.undirected_edges()) {
      const double c = cost_of(exact::Router::swapped(layout, a, b));
      if (c < best_cost) {
        best_cost = c;
        best_edge = {a, b};
      }
    }
    if (best_edge.first < 0) return std::nullopt;  // local minimum: trial failed
    swaps.push_back(best_edge);
    layout = exact::Router::swapped(std::move(layout), best_edge.first, best_edge.second);
    cost = cost_of(layout);
  }
  return std::nullopt;
}

/// Routes + emits one group of gates (a layer or a serialized single gate).
void process_group(exact::Router& route, const std::vector<Gate>& gates,
                   const arch::CouplingMap& cm, const arch::DistanceMatrix& dist, Rng& rng,
                   int trials) {
  std::vector<std::pair<int, int>> pairs;
  for (const auto& g : gates) {
    if (g.is_cnot()) pairs.emplace_back(g.control, g.target);
  }
  if (!pairs.empty() && !layer_executable(route.layout(), gates, cm)) {
    std::optional<std::vector<std::pair<int, int>>> best;
    for (int t = 0; t < trials; ++t) {
      auto trial = trial_search(pairs, route.layout(), cm, dist, rng);
      if (trial && (!best || trial->size() < best->size())) best = std::move(trial);
    }
    if (!best && pairs.size() > 1) {
      // Serialize the layer: route and emit gate by gate.
      for (const auto& g : gates) process_group(route, {g}, cm, dist, rng, trials);
      return;
    }
    if (best) {
      for (const auto& [a, b] : *best) route.swap(a, b);
    } else {
      // Deterministic fallback for a single blocked CNOT.
      route.walk(pairs[0].first, pairs[0].second, dist);
    }
  }
  for (const auto& g : gates) route.emit(g);
}

}  // namespace

exact::MappingResult map_stochastic_swap(const Circuit& circuit, const arch::CouplingMap& cm,
                                         const StochasticSwapOptions& options) {
  const auto start = exact::Router::Clock::now();
  if (exact::needs_swap_expansion(circuit, cm, "map_stochastic_swap")) {
    return map_stochastic_swap(circuit.with_swaps_expanded(), cm, options);
  }
  if (options.trials < 1 || options.runs < 1) {
    throw std::invalid_argument("map_stochastic_swap: trials and runs must be >= 1");
  }

  obs::Span span("heuristic.stochastic_swap", "heuristic");
  span.attr("circuit", circuit.name());
  span.attr("runs", static_cast<long long>(options.runs));
  static obs::Counter& maps_total = obs::MetricsRegistry::instance().counter(
      "qxmap_heuristic_maps_total", "Heuristic mapper invocations (all algorithms)");
  maps_total.inc();

  const auto dist_handle = arch::SwapCostCache::instance().distances(cm);
  const arch::DistanceMatrix& dist = *dist_handle;
  const exact::CostModel costs = options.costs.resolved(cm);
  const auto layers = asap_layers(circuit);

  std::optional<exact::Router> best;
  Rng rng(options.seed);
  for (int run = 0; run < options.runs; ++run) {
    obs::Span iter("heuristic.iteration", "heuristic");
    iter.attr("run", static_cast<long long>(run));
    exact::Router route(circuit, cm);
    for (const auto& layer : layers) {
      std::vector<Gate> gates;
      gates.reserve(layer.size());
      for (const std::size_t gi : layer) gates.push_back(circuit.gate(gi));
      process_group(route, gates, cm, dist, rng, options.trials);
    }
    const long long cost = costs.result_cost(route.swaps(), route.reversed());
    iter.attr("cost", cost);
    // Best-of-runs selection under the requested objective (ties keep the
    // earlier run, so single-run results are unchanged).
    if (!best || cost < costs.result_cost(best->swaps(), best->reversed())) {
      best = std::move(route);
    }
  }

  exact::MappingResult res;
  res.engine_name = "qiskit-stochastic";
  res.status = reason::Status::Feasible;
  res.instances_solved = options.runs;
  return std::move(*best).finish(std::move(res), costs, options.verify, start);
}

}  // namespace qxmap::heuristic
