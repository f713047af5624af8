#include "heuristic/layer_weight_mapper.hpp"

#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "arch/distances.hpp"
#include "arch/swap_cost_cache.hpp"
#include "common/rng.hpp"
#include "exact/router.hpp"
#include "ir/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::heuristic {

namespace {

/// Weighted lookahead score of `layout` at layer `li`: for every CNOT in the
/// window [li, li + w.size()), its remaining routing distance (hops - 1,
/// zero once adjacent) scaled by the layer's weight. Lower is better.
double window_score(const std::vector<std::vector<std::pair<int, int>>>& layer_pairs,
                    std::size_t li, const std::vector<double>& w,
                    const std::vector<int>& layout, const arch::DistanceMatrix& dist) {
  double score = 0.0;
  for (std::size_t i = 0; i < w.size() && li + i < layer_pairs.size(); ++i) {
    for (const auto& [qc, qt] : layer_pairs[li + i]) {
      const int pc = layout[static_cast<std::size_t>(qc)];
      const int pt = layout[static_cast<std::size_t>(qt)];
      score += w[i] * static_cast<double>(dist.hops(pc, pt) - 1);
    }
  }
  return score;
}

/// Routes the whole circuit under one weight profile. Phase 1 of each layer
/// greedily applies strictly-improving swaps under the window score; phase 2
/// emits the layer's gates, walking any still-blocked CNOT along a shortest
/// path (each step strictly shrinks that pair's distance, so it terminates).
exact::Router route_profile(const Circuit& circuit, const arch::CouplingMap& cm,
                           const arch::DistanceMatrix& dist,
                           const std::vector<std::vector<std::size_t>>& layers,
                           const std::vector<std::vector<std::pair<int, int>>>& layer_pairs,
                           const std::vector<double>& w) {
  exact::Router route(circuit, cm);
  const std::vector<int>& layout = route.layout();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    // Phase 1: weighted greedy pre-positioning. Only strictly-improving
    // swaps are taken, so the (finite, discrete-valued) score decreases
    // every iteration and the loop cannot revisit a layout.
    while (true) {
      std::set<int> touched;
      for (const auto& [qc, qt] : layer_pairs[li]) {
        const int pc = layout[static_cast<std::size_t>(qc)];
        const int pt = layout[static_cast<std::size_t>(qt)];
        if (!cm.coupled(pc, pt)) {
          touched.insert(pc);
          touched.insert(pt);
        }
      }
      if (touched.empty()) break;
      const double current = window_score(layer_pairs, li, w, layout, dist);
      constexpr double kEps = 1e-9;
      std::optional<std::pair<int, int>> best_edge;
      double best_score = current - kEps;
      for (const auto& [a, b] : cm.undirected_edges()) {
        if (!touched.contains(a) && !touched.contains(b)) continue;
        const double s =
            window_score(layer_pairs, li, w, exact::Router::swapped(layout, a, b), dist);
        if (s < best_score) {  // strict improvement; ties keep the earlier edge
          best_score = s;
          best_edge = {a, b};
        }
      }
      if (!best_edge) break;
      route.swap(best_edge->first, best_edge->second);
    }

    // Phase 2: emit the layer. A CNOT the greedy phase left blocked is
    // routed by walking its control toward its target along a shortest
    // path (the deterministic fallback every mapper shares).
    for (const std::size_t gi : layers[li]) {
      const Gate& g = circuit.gate(gi);
      if (g.is_cnot()) route.walk(g.control, g.target, dist);
      route.emit(g);
    }
  }
  return route;
}

}  // namespace

exact::MappingResult map_layer_weight(const Circuit& circuit, const arch::CouplingMap& cm,
                                      const LayerWeightOptions& options) {
  const auto start = exact::Router::Clock::now();
  if (options.iterations < 1 || options.lookahead_layers < 1) {
    throw std::invalid_argument("map_layer_weight: iterations and lookahead must be >= 1");
  }
  if (exact::needs_swap_expansion(circuit, cm, "map_layer_weight")) {
    return map_layer_weight(circuit.with_swaps_expanded(), cm, options);
  }

  obs::Span span("heuristic.layer_weight", "heuristic");
  span.attr("circuit", circuit.name());
  span.attr("iterations", static_cast<long long>(options.iterations));
  static obs::Counter& maps_total = obs::MetricsRegistry::instance().counter(
      "qxmap_heuristic_maps_total", "Heuristic mapper invocations (all algorithms)");
  maps_total.inc();

  const auto dist_handle = arch::SwapCostCache::instance().distances(cm);
  const arch::DistanceMatrix& dist = *dist_handle;
  const exact::CostModel costs = options.costs.resolved(cm);

  const auto layers = asap_layers(circuit);
  std::vector<std::vector<std::pair<int, int>>> layer_pairs(layers.size());
  for (std::size_t li = 0; li < layers.size(); ++li) {
    for (const std::size_t gi : layers[li]) {
      const Gate& g = circuit.gate(gi);
      if (g.is_cnot()) layer_pairs[li].emplace_back(g.control, g.target);
    }
  }

  Rng rng(options.seed);
  std::optional<exact::Router> best;
  long long best_cost = 0;
  const std::size_t window = static_cast<std::size_t>(options.lookahead_layers);
  for (int profile = 0; profile < options.iterations; ++profile) {
    obs::Span iter("heuristic.iteration", "heuristic");
    iter.attr("profile", static_cast<long long>(profile));
    std::vector<double> w(window);
    w[0] = 1.0;
    for (std::size_t i = 1; i < window; ++i) {
      if (profile == 0) {
        w[i] = std::pow(options.decay, static_cast<double>(i));
      } else {
        // Perturbed profile: a fresh geometric base plus per-layer jitter.
        // The current layer keeps weight 1, so progress always dominates.
        const double base = 0.15 + 0.7 * rng.next_double();
        w[i] = std::pow(base, static_cast<double>(i)) * (0.75 + 0.5 * rng.next_double());
      }
    }
    exact::Router r = route_profile(circuit, cm, dist, layers, layer_pairs, w);
    const long long cost = costs.result_cost(r.swaps(), r.reversed());
    iter.attr("cost", cost);
    if (!best || cost < best_cost) {
      best = std::move(r);
      best_cost = cost;
    }
  }

  exact::MappingResult res;
  res.engine_name = "layer-weight";
  res.status = reason::Status::Feasible;
  res.instances_solved = options.iterations;
  return std::move(*best).finish(std::move(res), costs, options.verify, start);
}

}  // namespace qxmap::heuristic
