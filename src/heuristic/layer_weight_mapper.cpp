#include "heuristic/layer_weight_mapper.hpp"

#include <cmath>
#include <optional>
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

/// One CNOT of the scoring window: its logical pair, its layer's weight,
/// its physical pair under the current layout, and its remaining routing
/// distance there (hops - 1, zero once adjacent).
struct WindowPair {
  int qc, qt;
  double weight;
  int pc, pt, gap;
};

/// Routes the whole circuit under one weight profile. Phase 1 of each layer
/// greedily applies strictly-improving swaps under the window score; phase 2
/// emits the layer's gates, walking any still-blocked CNOT along a shortest
/// path (each step strictly shrinks that pair's distance, so it terminates).
///
/// The window score of layer li is Σ w[i] · gap over the CNOTs of layers
/// [li, li + w.size()), summed in window order. The weights are fractional,
/// so a candidate's score is always summed in full and in that order: a
/// per-swap delta would round differently and change routes. The delta only
/// screens candidates. A sequential sum of N non-negative terms is within
/// (N - 1)·2⁻⁵³ of its exact value, relative to that value; a candidate
/// whose delta estimate exceeds the best score by (N + 16)·2⁻⁴⁶ of the
/// terms' mass therefore cannot beat it, and is skipped unsummed. The
/// winner's full sum is the next step's score.
exact::Router route_profile(const Circuit& circuit, const arch::CouplingMap& cm,
                           const arch::DistanceMatrix& dist,
                           const std::vector<std::vector<std::size_t>>& layers,
                           const std::vector<std::vector<std::pair<int, int>>>& layer_pairs,
                           const std::vector<double>& w) {
  exact::Router route(circuit, cm);
  const std::vector<int>& layout = route.layout();
  const auto slot = [](int p) { return static_cast<std::size_t>(p); };
  // Where the content of physical qubit q sits after SWAP(a, b).
  const auto across = [](int q, int a, int b) { return q == a ? b : q == b ? a : q; };
  std::vector<WindowPair> window;
  // Window pairs by the physical qubits they occupy.
  std::vector<std::vector<std::size_t>> pairs_at(slot(cm.num_physical()));
  // Window pairs a candidate SWAP(a, b) moves: those on a or b.
  std::vector<std::size_t> moving;
  const auto collect_moving = [&](int a, int b) {
    moving.assign(pairs_at[slot(a)].begin(), pairs_at[slot(a)].end());
    for (const std::size_t k : pairs_at[slot(b)]) {
      if (window[k].pc != a && window[k].pt != a) moving.push_back(k);
    }
  };
  // Physical qubits of the layer's blocked CNOTs: the candidate SWAPs are
  // the edges touching one.
  std::vector<int> touched;
  std::vector<char> is_touched(slot(cm.num_physical()), 0);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    window.clear();
    double current = 0.0;
    for (std::size_t i = 0; i < w.size() && li + i < layer_pairs.size(); ++i) {
      for (const auto& [qc, qt] : layer_pairs[li + i]) {
        const int pc = layout[slot(qc)];
        const int pt = layout[slot(qt)];
        const int gap = dist.hops(pc, pt) - 1;
        current += w[i] * static_cast<double>(gap);
        pairs_at[slot(pc)].push_back(window.size());
        pairs_at[slot(pt)].push_back(window.size());
        window.push_back({qc, qt, w[i], pc, pt, gap});
      }
    }
    const double margin_scale = std::ldexp(static_cast<double>(window.size() + 16), -46);

    // Phase 1: weighted greedy pre-positioning. Only strictly-improving
    // swaps are taken, so the (finite, discrete-valued) score decreases
    // every iteration and the loop cannot revisit a layout.
    while (true) {
      touched.clear();
      for (std::size_t k = 0; k < layer_pairs[li].size(); ++k) {
        if (window[k].gap > 0) {  // not coupled
          touched.push_back(window[k].pc);
          touched.push_back(window[k].pt);
        }
      }
      if (touched.empty()) break;
      for (const int p : touched) is_touched[slot(p)] = 1;
      constexpr double kEps = 1e-9;
      std::optional<std::pair<int, int>> best_edge;
      double best_score = current - kEps;
      for (const auto& [a, b] : cm.undirected_edges()) {
        if (!is_touched[slot(a)] && !is_touched[slot(b)]) continue;
        const auto moved_gap = [&](const WindowPair& p) {
          return dist.hops(across(p.pc, a, b), across(p.pt, a, b)) - 1;
        };
        // Screen: the score change over the moved pairs against the margin.
        collect_moving(a, b);
        double delta = 0.0;
        double mass = current;
        for (const std::size_t k : moving) {
          const double before = window[k].weight * static_cast<double>(window[k].gap);
          const double after = window[k].weight * static_cast<double>(moved_gap(window[k]));
          delta += after - before;
          mass += after + before;
        }
        if (current + delta - margin_scale * mass >= best_score) continue;

        double s = 0.0;
        for (const WindowPair& p : window) {
          const bool moves = p.pc == a || p.pc == b || p.pt == a || p.pt == b;
          s += p.weight * static_cast<double>(moves ? moved_gap(p) : p.gap);
        }
        if (s < best_score) {  // strict improvement; ties keep the earlier edge
          best_score = s;
          best_edge = {a, b};
        }
      }
      for (const int p : touched) is_touched[slot(p)] = 0;
      if (!best_edge) break;

      // Apply the winner: its moved pairs change place, and its full sum is
      // the score of the new layout.
      const auto [a, b] = *best_edge;
      route.swap(a, b);
      collect_moving(a, b);
      for (const std::size_t k : moving) {
        WindowPair& p = window[k];
        p.pc = across(p.pc, a, b);
        p.pt = across(p.pt, a, b);
        p.gap = dist.hops(p.pc, p.pt) - 1;
      }
      pairs_at[slot(a)].swap(pairs_at[slot(b)]);
      current = best_score;
    }
    for (const WindowPair& p : window) {
      pairs_at[slot(p.pc)].clear();
      pairs_at[slot(p.pt)].clear();
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
  if (!std::isfinite(options.decay) || options.decay < 0) {
    throw std::invalid_argument("map_layer_weight: decay must be finite and >= 0");
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
