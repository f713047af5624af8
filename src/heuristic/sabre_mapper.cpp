#include "heuristic/sabre_mapper.hpp"

#include <algorithm>
#include <cmath>
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

/// A CNOT the SWAP score measures: its logical pair and that pair's hop
/// distance under the current layout.
struct ScoredPair {
  int qc, qt;
  int hops;
};

/// One routing pass over `circuit` (whose dependency DAG is `dag`), applied
/// to `route`.
///
/// While every front gate is blocked, the front and the extended set stay
/// fixed, so they are indexed once and kept across SWAPs until one unblocks
/// a gate. The front and extended hop sums are integers, hence exact in a
/// double: a candidate SWAP(a, b) re-measures only the pairs on the logical
/// qubits sitting at a and b, and its score equals the one a full rescoring
/// of the swapped layout gives. Candidates are visited in the same edge order
/// with one jitter draw each, so routes are those of a full rescoring.
void run_pass(const Circuit& circuit, const Dag& dag, const arch::CouplingMap& cm,
              const arch::DistanceMatrix& dist, const SabreOptions& opt, Rng& rng,
              exact::Router& route) {
  const std::size_t m = static_cast<std::size_t>(cm.num_physical());
  const std::vector<int>& layout = route.layout();
  const auto slot = [](int q) { return static_cast<std::size_t>(q); };
  const auto at = [&](int q) { return layout[slot(q)]; };
  const auto hops_of = [&](int qc, int qt) { return dist.hops(at(qc), at(qt)); };

  // Physical -> logical qubit (-1 when empty), kept in step with `layout`.
  std::vector<int> logical_at(m);
  const auto reindex = [&] {
    std::fill(logical_at.begin(), logical_at.end(), -1);
    for (std::size_t q = 0; q < layout.size(); ++q) {
      logical_at[slot(layout[q])] = static_cast<int>(q);
    }
  };
  reindex();

  std::vector<int> preds = dag.preds;
  std::vector<std::size_t> front;
  for (std::size_t gi = 0; gi < circuit.size(); ++gi) {
    if (preds[gi] == 0) front.push_back(gi);
  }

  std::vector<double> decay(m, 1.0);
  int swaps_since_progress = 0;
  const int livelock_limit = 10 * cm.num_physical() * cm.num_physical() + 50;

  const auto schedule = [&](std::size_t gi) {
    route.emit(circuit.gate(gi));
    for (const std::size_t succ : dag.succs[gi]) {
      if (--preds[succ] == 0) front.push_back(succ);
    }
  };

  // Scratch reused across steps, so a SWAP allocates nothing once warm.
  std::vector<std::size_t> current, blocked, wave, next_wave, lowered;
  std::vector<ScoredPair> front_pairs, extended;
  std::vector<int> front_of(layout.size(), -1);  // logical qubit -> front pair
  std::vector<std::vector<std::size_t>> extended_of(layout.size());  // -> extended pairs
  std::vector<char> in_front(m, 0);  // physical qubit holds a front-pair qubit

  // Indexes the blocked front and the extended set behind it.
  const auto index_front = [&] {
    front_pairs.clear();
    for (const std::size_t gi : front) {
      // Front gates touch disjoint qubits: one front pair per logical qubit.
      const Gate& g = circuit.gate(gi);
      front_of[slot(g.control)] = front_of[slot(g.target)] = static_cast<int>(front_pairs.size());
      in_front[slot(at(g.control))] = in_front[slot(at(g.target))] = 1;
      front_pairs.push_back({g.control, g.target, hops_of(g.control, g.target)});
    }
    // The next CNOTs reachable behind the front, found by lowering `preds`
    // in place and raising it back afterwards.
    extended.clear();
    lowered.clear();
    wave.assign(front.begin(), front.end());
    while (!wave.empty() && static_cast<int>(extended.size()) < opt.extended_set_size) {
      next_wave.clear();
      for (const std::size_t gi : wave) {
        for (const std::size_t succ : dag.succs[gi]) {
          lowered.push_back(succ);
          if (--preds[succ] == 0) {
            next_wave.push_back(succ);
            const Gate& g = circuit.gate(succ);
            if (g.is_cnot()) {
              extended_of[slot(g.control)].push_back(extended.size());
              extended_of[slot(g.target)].push_back(extended.size());
              extended.push_back({g.control, g.target, hops_of(g.control, g.target)});
            }
          }
        }
      }
      wave.swap(next_wave);
    }
    for (const std::size_t succ : lowered) ++preds[succ];
  };
  const auto unindex_front = [&] {
    for (const ScoredPair& pr : front_pairs) {
      front_of[slot(pr.qc)] = front_of[slot(pr.qt)] = -1;
      in_front[slot(at(pr.qc))] = in_front[slot(at(pr.qt))] = 0;
    }
    for (const ScoredPair& pr : extended) {
      extended_of[slot(pr.qc)].clear();
      extended_of[slot(pr.qt)].clear();
    }
  };
  // Calls on_front / on_extended on each front / extended pair on logical
  // qubit la or lb (either may be -1, an empty physical qubit). An extended
  // pair on both is visited twice, which is harmless: SWAP(a, b) keeps its
  // distance. A front pair never is, as its qubits are not adjacent.
  const auto for_moved = [&](int la, int lb, const auto& on_front, const auto& on_extended) {
    for (const int l : {la, lb}) {
      if (l < 0) continue;
      if (const int f = front_of[slot(l)]; f >= 0) on_front(front_pairs[slot(f)]);
      for (const std::size_t i : extended_of[slot(l)]) on_extended(extended[i]);
    }
  };

  while (!front.empty()) {
    // Schedule everything executable in the current front.
    bool progressed = false;
    blocked.clear();
    current.swap(front);
    front.clear();
    for (const std::size_t gi : current) {
      const Gate& g = circuit.gate(gi);
      if (!g.is_cnot() || cm.coupled(at(g.control), at(g.target))) {
        schedule(gi);
        progressed = true;
      } else {
        blocked.push_back(gi);
      }
    }
    front.insert(front.end(), blocked.begin(), blocked.end());
    if (progressed) {
      std::fill(decay.begin(), decay.end(), 1.0);
      swaps_since_progress = 0;
      continue;
    }
    if (front.empty()) break;

    // All front gates are blocked CNOTs: insert SWAPs until one unblocks.
    index_front();
    long long front_sum = 0;
    for (const ScoredPair& pr : front_pairs) front_sum += pr.hops;
    long long extended_sum = 0;
    for (const ScoredPair& pr : extended) extended_sum += pr.hops;
    bool unblocked = false;
    while (!unblocked) {
      if (++swaps_since_progress > livelock_limit) {
        // Deterministic fallback: walk the first blocked pair together.
        unindex_front();
        const Gate& g = circuit.gate(front[0]);
        route.walk(g.control, g.target, dist);
        reindex();
        break;
      }

      // Candidate swaps: edges touching any qubit of a blocked front pair.
      double best_score = 0;
      std::pair<int, int> best_edge{-1, -1};
      long long best_front = 0;
      long long best_extended = 0;
      int candidates = 0;
      for (const auto& [a, b] : cm.undirected_edges()) {
        if (!in_front[slot(a)] && !in_front[slot(b)]) continue;
        const int la = logical_at[slot(a)];
        const int lb = logical_at[slot(b)];
        // Hops of a pair once SWAP(a, b) moves la to b and lb to a.
        const auto moved = [&](int q) { return q == la ? b : q == lb ? a : at(q); };
        const auto moved_hops = [&](const ScoredPair& pr) {
          return dist.hops(moved(pr.qc), moved(pr.qt));
        };
        long long front_hops = front_sum;
        long long extended_hops = extended_sum;
        for_moved(
            la, lb, [&](const ScoredPair& pr) { front_hops += moved_hops(pr) - pr.hops; },
            [&](const ScoredPair& pr) { extended_hops += moved_hops(pr) - pr.hops; });

        double score = static_cast<double>(front_hops);
        if (!extended.empty()) {
          score += opt.extended_set_weight * static_cast<double>(extended_hops) /
                   static_cast<double>(extended.size());
        }
        score *= std::max(decay[slot(a)], decay[slot(b)]);
        // Small random jitter for tie-breaking.
        score += 1e-9 * rng.next_double();
        if (candidates == 0 || score < best_score) {
          best_score = score;
          best_edge = {a, b};
          best_front = front_hops;
          best_extended = extended_hops;
        }
        ++candidates;
      }
      if (best_edge.first < 0) throw std::logic_error("map_sabre: no candidate swap");

      const auto [a, b] = best_edge;
      decay[slot(a)] += opt.decay;
      decay[slot(b)] += opt.decay;
      route.swap(a, b);
      std::swap(logical_at[slot(a)], logical_at[slot(b)]);
      std::swap(in_front[slot(a)], in_front[slot(b)]);
      front_sum = best_front;
      extended_sum = best_extended;
      // The moved pairs take their new distances; a moved front pair at
      // distance 1 is executable.
      for_moved(
          logical_at[slot(a)], logical_at[slot(b)],
          [&](ScoredPair& pr) {
            pr.hops = hops_of(pr.qc, pr.qt);
            unblocked = unblocked || pr.hops == 1;
          },
          [&](ScoredPair& pr) { pr.hops = hops_of(pr.qc, pr.qt); });
    }
    if (unblocked) unindex_front();
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
  if (options.bidirectional_rounds < 0 || options.extended_set_size < 0) {
    throw std::invalid_argument(
        "map_sabre: bidirectional_rounds and extended_set_size must be >= 0");
  }
  const auto bad_weight = [](double x) { return !std::isfinite(x) || x < 0; };
  if (bad_weight(options.extended_set_weight) || bad_weight(options.decay)) {
    throw std::invalid_argument("map_sabre: extended_set_weight and decay must be finite and >= 0");
  }
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
  const Dag fwd_dag(circuit);
  const Dag rev_dag(rev);

  // Each pass routes `c` from the layout the previous pass ended in; the
  // warm-up passes keep only their final layout, so they emit nothing.
  const auto pass = [&](const Circuit& c, const Dag& dag, std::vector<int> from, bool emit) {
    exact::Router route(c, cm, std::move(from), emit);
    run_pass(c, dag, cm, dist, options, rng, route);
    return route;
  };
  // Bidirectional warm-up: forward and backward passes refine the layout.
  exact::Router route(circuit, cm);
  for (int round = 0; round < options.bidirectional_rounds; ++round) {
    obs::Span iter("heuristic.iteration", "heuristic");
    iter.attr("round", static_cast<long long>(round));
    route = pass(rev, rev_dag, pass(circuit, fwd_dag, route.layout(), false).layout(), false);
  }
  route = pass(circuit, fwd_dag, route.layout(), true);

  exact::MappingResult res;
  res.engine_name = "sabre";
  res.status = reason::Status::Feasible;
  return std::move(route).finish(std::move(res), costs, options.verify, start);
}

}  // namespace qxmap::heuristic
