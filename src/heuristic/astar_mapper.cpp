#include "heuristic/astar_mapper.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <stdexcept>

#include "arch/distances.hpp"
#include "arch/swap_cost_cache.hpp"
#include "exact/router.hpp"
#include "ir/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::heuristic {

namespace {

/// A* search for the cheapest SWAP sequence making all `pairs` executable.
std::vector<std::pair<int, int>> astar_route(const std::vector<std::pair<int, int>>& pairs,
                                             const std::vector<int>& start_layout,
                                             const arch::CouplingMap& cm,
                                             const arch::DistanceMatrix& dist, int max_expansions,
                                             long long swap_cost) {
  struct Node {
    long long f;
    long long g;
    std::vector<int> layout;
    std::vector<std::pair<int, int>> swaps;
    bool operator>(const Node& o) const { return f > o.f; }
  };

  const auto heuristic = [&](const std::vector<int>& lay) {
    long long h = 0;
    for (const auto& [qc, qt] : pairs) {
      const int pc = lay[static_cast<std::size_t>(qc)];
      const int pt = lay[static_cast<std::size_t>(qt)];
      if (!cm.coupled(pc, pt)) {
        // Admissible: at least hops-1 SWAPs are still needed for this pair.
        h += swap_cost * (dist.hops(pc, pt) - 1);
      }
    }
    return h;
  };
  const auto is_goal = [&](const std::vector<int>& lay) {
    return std::all_of(pairs.begin(), pairs.end(), [&](const auto& pr) {
      return cm.coupled(lay[static_cast<std::size_t>(pr.first)],
                        lay[static_cast<std::size_t>(pr.second)]);
    });
  };

  std::priority_queue<Node, std::vector<Node>, std::greater<>> open;
  std::map<std::vector<int>, long long> best_g;
  open.push({heuristic(start_layout), 0, start_layout, {}});
  best_g[start_layout] = 0;

  int expansions = 0;
  while (!open.empty()) {
    Node cur = open.top();
    open.pop();
    if (const auto it = best_g.find(cur.layout); it != best_g.end() && it->second < cur.g) {
      continue;  // stale entry
    }
    if (is_goal(cur.layout)) return cur.swaps;
    if (++expansions > max_expansions) break;
    for (const auto& [a, b] : cm.undirected_edges()) {
      Node next = cur;
      next.g += swap_cost;
      next.layout = exact::Router::swapped(std::move(next.layout), a, b);
      const auto it = best_g.find(next.layout);
      if (it != best_g.end() && it->second <= next.g) continue;
      best_g[next.layout] = next.g;
      next.swaps.push_back({a, b});
      next.f = next.g + heuristic(next.layout);
      open.push(std::move(next));
    }
  }
  throw std::invalid_argument("map_astar: search budget exhausted for a layer");
}

}  // namespace

exact::MappingResult map_astar(const Circuit& circuit, const arch::CouplingMap& cm,
                               const AStarOptions& options) {
  const auto start = exact::Router::Clock::now();
  if (exact::needs_swap_expansion(circuit, cm, "map_astar")) {
    return map_astar(circuit.with_swaps_expanded(), cm, options);
  }

  obs::Span span("heuristic.astar", "heuristic");
  span.attr("circuit", circuit.name());
  static obs::Counter& maps_total = obs::MetricsRegistry::instance().counter(
      "qxmap_heuristic_maps_total", "Heuristic mapper invocations (all algorithms)");
  maps_total.inc();

  const auto dist_handle = arch::SwapCostCache::instance().distances(cm);
  const arch::DistanceMatrix& dist = *dist_handle;
  const exact::CostModel costs = options.costs.resolved(cm);

  exact::Router route(circuit, cm);
  for (const auto& layer : asap_layers(circuit)) {
    std::vector<std::pair<int, int>> pairs;
    for (const std::size_t gi : layer) {
      const Gate& g = circuit.gate(gi);
      if (g.is_cnot()) pairs.emplace_back(g.control, g.target);
    }
    if (!pairs.empty()) {
      for (const auto& [a, b] : astar_route(pairs, route.layout(), cm, dist,
                                            options.max_expansions, costs.swap_cost)) {
        route.swap(a, b);
      }
    }
    for (const std::size_t gi : layer) route.emit(circuit.gate(gi));
  }

  exact::MappingResult res;
  res.engine_name = "astar";
  res.status = reason::Status::Feasible;
  return std::move(route).finish(std::move(res), costs, options.verify, start);
}

}  // namespace qxmap::heuristic
