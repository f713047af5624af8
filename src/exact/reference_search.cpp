#include "exact/reference_search.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace qxmap::exact {

namespace {

using Clock = std::chrono::steady_clock;

constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

/// The injective placements of n >= 1 logical qubits on the m physical
/// qubits of a coupling map, indexed in lexicographic order, plus the
/// single-SWAP neighbour of every placement across every undirected
/// coupling edge.
class PlacementGraph {
 public:
  PlacementGraph(const arch::CouplingMap& cm, int n)
      : n_(static_cast<std::size_t>(n)), edges_(cm.undirected_edges()) {
    const int m = cm.num_physical();
    // weight_[j]: completions of a placement prefix of length j + 1, so
    // rank() inverts the lexicographic enumeration below.
    weight_.assign(n_, 1);
    for (std::size_t j = n_; j-- > 1;) {
      weight_[j - 1] = weight_[j] * static_cast<std::size_t>(m - static_cast<int>(j));
    }
    // k-permutations in lexicographic order: visit the prefix, then reverse
    // the suffix so next_permutation advances straight to the next prefix.
    std::vector<int> perm(static_cast<std::size_t>(m));
    std::iota(perm.begin(), perm.end(), 0);
    do {
      cells_.insert(cells_.end(), perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(n_));
      std::reverse(perm.begin() + static_cast<std::ptrdiff_t>(n_), perm.end());
    } while (std::next_permutation(perm.begin(), perm.end()));
    size_ = cells_.size() / n_;

    next_.resize(size_ * edges_.size());
    std::vector<int> swapped(n_);
    for (std::size_t s = 0; s < size_; ++s) {
      const int* p = placement(s);
      for (std::size_t e = 0; e < edges_.size(); ++e) {
        const auto [a, b] = edges_[e];
        for (std::size_t j = 0; j < n_; ++j) swapped[j] = p[j] == a ? b : p[j] == b ? a : p[j];
        next_[s * edges_.size() + e] = static_cast<std::uint32_t>(rank(swapped));
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }
  [[nodiscard]] const std::pair<int, int>& edge(std::size_t e) const { return edges_[e]; }
  [[nodiscard]] const int* placement(std::size_t s) const { return cells_.data() + s * n_; }
  /// Placement after SWAP on edge e; s itself when e touches no logical qubit.
  [[nodiscard]] std::size_t neighbour(std::size_t s, std::size_t e) const {
    return next_[s * edges_.size() + e];
  }

 private:
  [[nodiscard]] std::size_t rank(const std::vector<int>& p) const {
    std::size_t r = 0;
    std::uint32_t used = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      const auto below = (std::uint32_t{1} << p[j]) - 1;
      r += static_cast<std::size_t>(std::popcount(below & ~used)) * weight_[j];
      used |= std::uint32_t{1} << p[j];
    }
    return r;
  }

  std::size_t n_;
  std::vector<std::pair<int, int>> edges_;
  std::vector<std::size_t> weight_;
  std::vector<int> cells_;  // size_ placements of n_ cells each
  std::size_t size_ = 0;
  std::vector<std::uint32_t> next_;  // size_ x num_edges()
};

/// Multi-source Dijkstra at a permutation point: every placement starts at
/// its cost after the previous gate (`dist`, relaxed in place) and may move
/// along SWAP edges at `swap_cost` each. Returns how each placement was
/// reached: 0 = held, e + 1 = SWAP on edge e from neighbour(s, e) (a SWAP
/// is its own inverse). Pops run in (cost, index) order and only strictly
/// cheaper arrivals replace a parent — the documented tie-break.
std::vector<std::uint8_t> relax(const PlacementGraph& graph, std::vector<long long>& dist,
                                long long swap_cost) {
  using Entry = std::pair<long long, std::uint32_t>;
  std::vector<std::uint8_t> parent(graph.size(), 0);
  std::vector<Entry> heap;
  heap.reserve(graph.size());
  for (std::size_t s = 0; s < graph.size(); ++s) {
    if (dist[s] < kInf) heap.emplace_back(dist[s], static_cast<std::uint32_t>(s));
  }
  const std::greater<> later;
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, s] = heap.back();
    heap.pop_back();
    if (d > dist[s]) continue;  // superseded by a cheaper arrival
    const long long arrival = d + swap_cost;
    for (std::size_t e = 0; e < graph.num_edges(); ++e) {
      const std::size_t t = graph.neighbour(s, e);
      if (arrival < dist[t]) {
        dist[t] = arrival;
        parent[t] = static_cast<std::uint8_t>(e + 1);
        heap.emplace_back(arrival, static_cast<std::uint32_t>(t));
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  return parent;
}

}  // namespace

LayoutRoute search_layouts(const std::vector<Gate>& cnots, int num_logical,
                           const arch::CouplingMap& cm,
                           const std::vector<std::size_t>& perm_points, const CostModel& costs,
                           Clock::time_point deadline) {
  const int m = cm.num_physical();
  const int n = num_logical;
  if (m > 8) throw std::invalid_argument("search_layouts: m > 8 not supported");
  if (n < 0 || n > m) throw std::invalid_argument("search_layouts: need 0 <= n <= m");
  if (costs.swap_cost <= 0) throw std::invalid_argument("search_layouts: unresolved costs");
  for (const auto& g : cnots) {
    if (g.control < 0 || g.control >= n || g.target < 0 || g.target >= n) {
      throw std::invalid_argument("search_layouts: CNOT operand outside the logical qubits");
    }
  }

  LayoutRoute out;
  if (cnots.empty()) {
    out.status = reason::Status::Optimal;
    out.initial.resize(static_cast<std::size_t>(n));
    std::iota(out.initial.begin(), out.initial.end(), 0);
    return out;
  }

  const PlacementGraph graph(cm, n);
  const std::size_t K = cnots.size();
  std::vector<bool> is_point(K, false);
  for (const std::size_t k : perm_points) {
    if (k >= 1 && k < K) is_point[k] = true;
  }
  // Added cost of a CNOT on physical (control, target); -1 = not coupled.
  const auto mu = static_cast<std::size_t>(m);
  std::vector<int> cnot_cost(mu * mu, -1);
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < m; ++b) {
      const auto at = static_cast<std::size_t>(a) * mu + static_cast<std::size_t>(b);
      if (cm.allows(a, b)) {
        cnot_cost[at] = 0;
      } else if (cm.allows(b, a)) {
        cnot_cost[at] = costs.reverse_cost;
      }
    }
  }

  // dist[s]: cheapest cost of the gates so far ending at placement s; the
  // initial mapping is free. parents[k]: relax()'s record at point k.
  std::vector<long long> dist(graph.size(), 0);
  std::vector<std::vector<std::uint8_t>> parents(K);
  for (std::size_t k = 0; k < K; ++k) {
    if (Clock::now() >= deadline) return out;
    if (is_point[k]) parents[k] = relax(graph, dist, costs.swap_cost);
    const auto c = static_cast<std::size_t>(cnots[k].control);
    const auto t = static_cast<std::size_t>(cnots[k].target);
    bool executable = false;
    for (std::size_t s = 0; s < graph.size(); ++s) {
      if (dist[s] >= kInf) continue;
      const int* p = graph.placement(s);
      const int penalty = cnot_cost[static_cast<std::size_t>(p[c]) * mu +
                                    static_cast<std::size_t>(p[t])];
      dist[s] = penalty < 0 ? kInf : dist[s] + penalty;
      executable = executable || penalty >= 0;
    }
    if (!executable) {
      out.status = reason::Status::Unsat;
      return out;
    }
  }

  // Backtrack from the cheapest, then lowest-index, final placement.
  std::size_t s = static_cast<std::size_t>(
      std::min_element(dist.begin(), dist.end()) - dist.begin());
  out.status = reason::Status::Optimal;
  out.cost = dist[s];
  out.swaps.resize(K);
  for (std::size_t k = K; k-- > 1;) {
    if (!is_point[k]) continue;
    auto& chain = out.swaps[k];
    while (const std::uint8_t via = parents[k][s]) {
      const std::size_t e = via - 1u;
      chain.push_back(graph.edge(e));
      s = graph.neighbour(s, e);
    }
    std::reverse(chain.begin(), chain.end());
  }
  const int* first = graph.placement(s);
  out.initial.assign(first, first + n);
  return out;
}

ReferenceResult minimal_cost_reference(const std::vector<Gate>& cnots, int num_logical,
                                       const arch::CouplingMap& cm,
                                       const std::vector<std::size_t>& perm_points,
                                       const CostModel& costs) {
  const LayoutRoute route = search_layouts(cnots, num_logical, cm, perm_points, costs);
  if (route.status != reason::Status::Optimal) return {false, 0};
  return {true, route.cost};
}

}  // namespace qxmap::exact
