#include "arch/subsets.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

namespace qxmap::arch {

std::vector<std::vector<int>> connected_subsets(const CouplingMap& cm, int n) {
  const int m = cm.num_physical();
  if (n < 0 || n > m) throw std::invalid_argument("connected_subsets: need 0 <= n <= m");
  if (n == 0) return {{}};
  std::vector<std::vector<int>> out;
  std::vector<int> sub;
  // near[u] > 0 iff u is in `sub` or adjacent to one of its members.
  std::vector<int> near(static_cast<std::size_t>(m), 0);
  const auto mark = [&](int w, int delta) {
    near[static_cast<std::size_t>(w)] += delta;
    for (const int u : cm.neighbours(w)) near[static_cast<std::size_t>(u)] += delta;
  };
  // ESU: `ext` holds the candidates above `root` that may join `sub`. Each
  // chosen w adds only its exclusive neighbours (neither in `sub` nor next
  // to it), so every connected subset is reached along exactly one path.
  const auto extend = [&](auto&& self, std::vector<int> ext, int root) -> void {
    if (static_cast<int>(sub.size()) == n) {
      out.push_back(sub);
      return;
    }
    while (!ext.empty()) {
      const int w = ext.back();
      ext.pop_back();
      std::vector<int> next = ext;
      for (const int u : cm.neighbours(w)) {
        if (u > root && near[static_cast<std::size_t>(u)] == 0) next.push_back(u);
      }
      sub.push_back(w);
      mark(w, +1);
      self(self, std::move(next), root);
      mark(w, -1);
      sub.pop_back();
    }
  };
  for (int v = 0; v < m; ++v) {
    std::vector<int> ext;
    for (const int u : cm.neighbours(v)) {
      if (u > v) ext.push_back(u);
    }
    sub.assign(1, v);
    mark(v, +1);
    extend(extend, std::move(ext), v);
    mark(v, -1);
  }
  for (auto& s : out) std::sort(s.begin(), s.end());
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// The directed graph one subset induces, on local labels 0..n-1.
struct Induced {
  int n = 0;
  std::vector<char> adj;  // adj[u * n + v]: edge u → v
  std::vector<int> in, out;
  int edges = 0;

  [[nodiscard]] bool has(int u, int v) const {
    return adj[static_cast<std::size_t>(u * n + v)] != 0;
  }
};

Induced induce(const CouplingMap& cm, const std::vector<int>& subset) {
  Induced g;
  g.n = static_cast<int>(subset.size());
  const auto n = static_cast<std::size_t>(g.n);
  g.adj.assign(n * n, 0);
  g.in.assign(n, 0);
  g.out.assign(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v || !cm.allows(subset[u], subset[v])) continue;
      g.adj[u * n + v] = 1;
      ++g.out[u];
      ++g.in[v];
      ++g.edges;
    }
  }
  return g;
}

/// Canonical key: the smallest adjacency string over every labelling that
/// lists vertices by (in-degree, out-degree) and permutes within ties.
/// Label k's pairs with labels 0..k-1 form the key's k-th segment, so a
/// partial labelling already fixes a prefix and a branch whose prefix
/// exceeds the best key so far is cut.
std::string class_key(const Induced& g) {
  const int n = g.n;
  std::vector<int> colour(static_cast<std::size_t>(n));  // (in, out) as one int
  for (std::size_t v = 0; v < colour.size(); ++v) colour[v] = g.in[v] * n + g.out[v];
  std::vector<int> cell = colour;  // cell[k]: the colour label k must have
  std::sort(cell.begin(), cell.end());

  std::string key(static_cast<std::size_t>(n * (n - 1)), '\0');
  std::string best;
  std::vector<int> vertex_of(static_cast<std::size_t>(n));
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  const auto label = [&](auto&& self, int k) -> void {
    if (k == n) {
      if (best.empty() || key < best) best = key;
      return;
    }
    const auto begin = static_cast<std::size_t>(k * (k - 1));
    const auto end = static_cast<std::size_t>(k * (k + 1));
    for (int v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (used[vi] != 0 || colour[vi] != cell[static_cast<std::size_t>(k)]) continue;
      for (int j = 0; j < k; ++j) {
        const int w = vertex_of[static_cast<std::size_t>(j)];
        key[begin + static_cast<std::size_t>(2 * j)] = g.has(v, w) ? '1' : '0';
        key[begin + static_cast<std::size_t>(2 * j) + 1] = g.has(w, v) ? '1' : '0';
      }
      if (!best.empty() && key.compare(0, end, best, 0, end) > 0) continue;
      vertex_of[static_cast<std::size_t>(k)] = v;
      used[vi] = 1;
      self(self, k + 1);
      used[vi] = 0;
    }
  };
  label(label, 0);
  return best;
}

/// True iff some bijection σ from `b`'s vertices to `a_subset`'s maps every
/// directed edge u → v of `b` onto an edge σ(u) → σ(v) of `cm`. Vertices of
/// `b` are placed in breadth-first order from its highest-degree vertex, so
/// each one after the first is checked against an already placed neighbour.
bool embeds(const Induced& b, const Induced& a, const CouplingMap& cm,
            const std::vector<int>& a_subset) {
  const int n = b.n;
  std::vector<int> order;
  std::vector<char> queued(static_cast<std::size_t>(n), 0);
  int first = 0;
  for (int v = 1; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto fi = static_cast<std::size_t>(first);
    if (b.in[vi] + b.out[vi] > b.in[fi] + b.out[fi]) first = v;
  }
  order.push_back(first);
  queued[static_cast<std::size_t>(first)] = 1;
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (int v = 0; v < n; ++v) {
      const int u = order[head];
      if (queued[static_cast<std::size_t>(v)] == 0 && (b.has(u, v) || b.has(v, u))) {
        queued[static_cast<std::size_t>(v)] = 1;
        order.push_back(v);
      }
    }
  }
  if (static_cast<int>(order.size()) != n) return false;  // instances are connected

  std::vector<int> image(static_cast<std::size_t>(n), -1);  // b vertex → a vertex
  std::vector<char> taken(static_cast<std::size_t>(n), 0);
  const auto place = [&](auto&& self, std::size_t k) -> bool {
    if (k == order.size()) return true;
    const int u = order[k];
    const auto ui = static_cast<std::size_t>(u);
    for (int x = 0; x < n; ++x) {
      const auto xi = static_cast<std::size_t>(x);
      if (taken[xi] != 0 || a.in[xi] < b.in[ui] || a.out[xi] < b.out[ui]) continue;
      bool fits = true;
      for (std::size_t j = 0; j < k && fits; ++j) {
        const int w = order[j];
        const int y = a_subset[static_cast<std::size_t>(image[static_cast<std::size_t>(w)])];
        const int px = a_subset[xi];
        fits = (!b.has(u, w) || cm.allows(px, y)) && (!b.has(w, u) || cm.allows(y, px));
      }
      if (!fits) continue;
      image[ui] = x;
      taken[xi] = 1;
      if (self(self, k + 1)) return true;
      taken[xi] = 0;
    }
    return false;
  };
  return place(place, 0);
}

}  // namespace

SubsetClasses subset_classes(const CouplingMap& cm,
                             const std::vector<std::vector<int>>& subsets) {
  SubsetClasses out;
  std::set<std::string> seen;  // class keys met so far
  std::vector<Induced> kept;   // graphs of out.solve, same order
  for (std::size_t i = 0; i < subsets.size(); ++i) {
    Induced g = induce(cm, subsets[i]);
    if (!seen.insert(class_key(g)).second) continue;
    bool dominated = false;
    for (std::size_t k = 0; k < kept.size() && !dominated; ++k) {
      dominated = kept[k].edges > g.edges && embeds(g, kept[k], cm, subsets[out.solve[k]]);
    }
    if (dominated) continue;
    out.solve.push_back(i);
    kept.push_back(std::move(g));
  }
  out.classes = seen.size();
  return out;
}

}  // namespace qxmap::arch
