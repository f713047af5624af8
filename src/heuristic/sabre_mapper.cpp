#include "heuristic/sabre_mapper.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "arch/distances.hpp"
#include "arch/swap_cost_cache.hpp"
#include "common/rng.hpp"
#include "exact/router.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::heuristic {

namespace {

/// Dependency bookkeeping over the gate list: a gate becomes available once
/// the previous gate on each of its qubits has been scheduled. A barrier
/// spans every qubit: it waits for the last gate on each and holds back the
/// next one on each.
struct Dag {
  explicit Dag(const Circuit& c) {
    std::vector<int> all(static_cast<std::size_t>(c.num_qubits()));
    std::iota(all.begin(), all.end(), 0);
    std::vector<int> last(all.size(), -1);
    preds.assign(c.size(), 0);
    succs.assign(c.size(), {});
    for (std::size_t gi = 0; gi < c.size(); ++gi) {
      const Gate& g = c.gate(gi);
      for (const int q : g.kind == OpKind::Barrier ? all : g.qubits()) {
        const int prev = std::exchange(last[static_cast<std::size_t>(q)], static_cast<int>(gi));
        if (prev < 0) continue;
        // One edge per predecessor, even when it was last on several qubits.
        auto& out = succs[static_cast<std::size_t>(prev)];
        if (out.empty() || out.back() != gi) {
          out.push_back(gi);
          ++preds[gi];
        }
      }
    }
  }

  std::vector<int> preds;
  std::vector<std::vector<std::size_t>> succs;
};

/// One routing pass over `circuit`, applied to `route`.
void run_pass(const Circuit& circuit, const arch::CouplingMap& cm,
              const arch::DistanceMatrix& dist, const SabreOptions& opt, Rng& rng,
              exact::Router& route) {
  const Dag dag(circuit);
  const int m = cm.num_physical();
  const std::vector<int>& layout = route.layout();

  std::vector<int> preds = dag.preds;
  std::vector<std::size_t> front;
  for (std::size_t gi = 0; gi < circuit.size(); ++gi) {
    if (preds[gi] == 0) front.push_back(gi);
  }

  std::vector<double> decay(static_cast<std::size_t>(m), 1.0);
  int swaps_since_progress = 0;
  const int livelock_limit = 10 * m * m + 50;

  const auto schedule = [&](std::size_t gi) {
    route.emit(circuit.gate(gi));
    for (const std::size_t succ : dag.succs[gi]) {
      if (--preds[succ] == 0) front.push_back(succ);
    }
  };

  while (!front.empty()) {
    // Schedule everything executable in the current front.
    bool progressed = false;
    std::vector<std::size_t> blocked;
    std::vector<std::size_t> current = std::move(front);
    front.clear();
    for (const std::size_t gi : current) {
      const Gate& g = circuit.gate(gi);
      if (!g.is_cnot() || cm.coupled(layout[static_cast<std::size_t>(g.control)],
                                     layout[static_cast<std::size_t>(g.target)])) {
        schedule(gi);
        progressed = true;
      } else {
        blocked.push_back(gi);
      }
    }
    for (const std::size_t gi : blocked) front.push_back(gi);
    if (progressed) {
      std::fill(decay.begin(), decay.end(), 1.0);
      swaps_since_progress = 0;
      continue;
    }
    if (front.empty()) break;

    // All front gates are blocked CNOTs: pick a SWAP.
    if (++swaps_since_progress > livelock_limit) {
      // Deterministic fallback: walk the first blocked pair together.
      const Gate& g = circuit.gate(front[0]);
      route.walk(g.control, g.target, dist);
      continue;
    }

    // Extended set: the next CNOTs reachable behind the front.
    std::vector<std::pair<int, int>> front_pairs;
    for (const std::size_t gi : front) {
      front_pairs.emplace_back(circuit.gate(gi).control, circuit.gate(gi).target);
    }
    std::vector<std::pair<int, int>> extended;
    {
      std::vector<int> tmp_preds = preds;
      std::vector<std::size_t> wave = front;
      while (!wave.empty() && static_cast<int>(extended.size()) < opt.extended_set_size) {
        std::vector<std::size_t> next_wave;
        for (const std::size_t gi : wave) {
          for (const std::size_t succ : dag.succs[gi]) {
            if (--tmp_preds[succ] == 0) {
              next_wave.push_back(succ);
              const Gate& g = circuit.gate(succ);
              if (g.is_cnot()) extended.emplace_back(g.control, g.target);
            }
          }
        }
        wave = std::move(next_wave);
      }
    }

    const auto pair_distance = [&](const std::vector<int>& lay,
                                   const std::vector<std::pair<int, int>>& pairs) {
      double d = 0;
      for (const auto& [qc, qt] : pairs) {
        d += dist.hops(lay[static_cast<std::size_t>(qc)], lay[static_cast<std::size_t>(qt)]);
      }
      return d;
    };

    // Candidate swaps: edges touching any qubit of a blocked front pair.
    double best_score = 0;
    std::pair<int, int> best_edge{-1, -1};
    int candidates = 0;
    for (const auto& [a, b] : cm.undirected_edges()) {
      bool relevant = false;
      for (const auto& [qc, qt] : front_pairs) {
        const int pc = layout[static_cast<std::size_t>(qc)];
        const int pt = layout[static_cast<std::size_t>(qt)];
        if (a == pc || a == pt || b == pc || b == pt) relevant = true;
      }
      if (!relevant) continue;
      const std::vector<int> trial = exact::Router::swapped(layout, a, b);
      double score = pair_distance(trial, front_pairs);
      if (!extended.empty()) {
        score += opt.extended_set_weight * pair_distance(trial, extended) /
                 static_cast<double>(extended.size());
      }
      score *= std::max(decay[static_cast<std::size_t>(a)], decay[static_cast<std::size_t>(b)]);
      // Small random jitter for tie-breaking.
      score += 1e-9 * rng.next_double();
      if (candidates == 0 || score < best_score) {
        best_score = score;
        best_edge = {a, b};
      }
      ++candidates;
    }
    if (best_edge.first < 0) throw std::logic_error("map_sabre: no candidate swap");
    decay[static_cast<std::size_t>(best_edge.first)] += opt.decay;
    decay[static_cast<std::size_t>(best_edge.second)] += opt.decay;
    route.swap(best_edge.first, best_edge.second);
  }
}

/// Circuit with the gate order reversed (routing only cares about pair
/// adjacency, so daggering the gates is unnecessary).
Circuit reversed(const Circuit& c) {
  Circuit out(c.num_qubits(), c.name());
  for (std::size_t i = c.size(); i-- > 0;) out.append(c.gate(i));
  return out;
}

}  // namespace

exact::MappingResult map_sabre(const Circuit& circuit, const arch::CouplingMap& cm,
                               const SabreOptions& options) {
  const auto start = exact::Router::Clock::now();
  if (exact::needs_swap_expansion(circuit, cm, "map_sabre")) {
    return map_sabre(circuit.with_swaps_expanded(), cm, options);
  }

  obs::Span span("heuristic.sabre", "heuristic");
  span.attr("circuit", circuit.name());
  span.attr("bidirectional_rounds", static_cast<long long>(options.bidirectional_rounds));
  static obs::Counter& maps_total = obs::MetricsRegistry::instance().counter(
      "qxmap_heuristic_maps_total", "Heuristic mapper invocations (all algorithms)");
  maps_total.inc();

  const auto dist_handle = arch::SwapCostCache::instance().distances(cm);
  const arch::DistanceMatrix& dist = *dist_handle;
  const exact::CostModel costs = options.costs.resolved(cm);
  Rng rng(options.seed);
  const Circuit rev = reversed(circuit);

  // Each pass routes `c` from the layout the previous pass ended in; the
  // warm-up passes keep only their final layout, so they emit nothing.
  const auto pass = [&](const Circuit& c, std::vector<int> from, bool emit) {
    exact::Router route(c, cm, std::move(from), emit);
    run_pass(c, cm, dist, options, rng, route);
    return route;
  };
  // Bidirectional warm-up: forward and backward passes refine the layout.
  exact::Router route(circuit, cm);
  for (int round = 0; round < options.bidirectional_rounds; ++round) {
    obs::Span iter("heuristic.iteration", "heuristic");
    iter.attr("round", static_cast<long long>(round));
    route = pass(rev, pass(circuit, route.layout(), false).layout(), false);
  }
  route = pass(circuit, route.layout(), true);

  exact::MappingResult res;
  res.engine_name = "sabre";
  res.status = reason::Status::Feasible;
  return std::move(route).finish(std::move(res), costs, options.verify, start);
}

}  // namespace qxmap::heuristic
