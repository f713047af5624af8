#include "exact/encoder.hpp"

#include <algorithm>
#include <stdexcept>

namespace qxmap::exact {

namespace {

/// Positive literal of engine variable v (DIMACS-like convention).
constexpr int lit(int v) { return v + 1; }

/// Records the prefix as an engine-agnostic clause list: variable ids are
/// prefix-local (sequential from 0), clauses are stored verbatim. Gives the
/// shared ReasoningEngine helpers (add_exactly_one, add_implies_equal, …) a
/// target without involving a real solver, so the prefix is derived once
/// per circuit instead of once per subset instance. Costs, bounds and
/// solving are per-instance by definition and therefore rejected.
class ClauseCollector final : public reason::ReasoningEngine {
 public:
  int new_bool() override { return var_count_++; }
  void add_clause(const std::vector<int>& lits) override { clauses_.push_back(lits); }
  void add_cost(int /*var*/, long long /*weight*/) override {
    throw std::logic_error("Encoding prefix: cost terms are per-instance");
  }
  reason::Outcome minimize(std::chrono::milliseconds /*budget*/) override {
    throw std::logic_error("Encoding prefix: collector cannot solve");
  }
  [[nodiscard]] bool value(int /*var*/) const override {
    throw std::logic_error("Encoding prefix: collector has no model");
  }
  [[nodiscard]] std::string name() const override { return "prefix-collector"; }

  int var_count_ = 0;
  std::vector<std::vector<int>> clauses_;
};

}  // namespace

Encoding::Prefix Encoding::build_prefix(const std::vector<Gate>& cnots, int num_logical,
                                        int num_physical,
                                        const std::vector<std::size_t>& perm_points) {
  if (cnots.empty()) throw std::invalid_argument("Encoding: empty CNOT skeleton");
  if (num_logical > num_physical) {
    throw std::invalid_argument("Encoding: more logical than physical qubits");
  }
  for (const auto& g : cnots) {
    if (!g.is_cnot()) throw std::invalid_argument("Encoding: skeleton must contain only CNOTs");
    if (g.control >= num_logical || g.target >= num_logical) {
      throw std::invalid_argument("Encoding: gate uses logical qubit beyond num_logical");
    }
  }
  for (const std::size_t k : perm_points) {
    if (k == 0 || k >= cnots.size()) {
      throw std::invalid_argument("Encoding: permutation point out of range");
    }
  }

  Prefix p;
  p.num_gates = static_cast<int>(cnots.size());
  p.m = num_physical;
  p.n = num_logical;
  p.gates.reserve(cnots.size());
  for (const auto& g : cnots) p.gates.emplace_back(g.control, g.target);
  p.perm_points = perm_points;
  std::sort(p.perm_points.begin(), p.perm_points.end());
  p.perms = Permutation::all(static_cast<std::size_t>(p.m));

  ClauseCollector c;
  const int m = p.m;
  const int n = p.n;
  const auto x_at = [&p, m, n](int k, int i, int j) {
    return p.x[static_cast<std::size_t>((k * m + i) * n + j)];
  };

  // --- mapping variables x^k_ij (Def. 4) -------------------------------
  p.x.resize(static_cast<std::size_t>(p.num_gates) * static_cast<std::size_t>(m) *
             static_cast<std::size_t>(n));
  for (auto& v : p.x) v = c.new_bool();

  // --- Eq. (1): well-defined mapping per gate ---------------------------
  for (int k = 0; k < p.num_gates; ++k) {
    for (int j = 0; j < n; ++j) {
      std::vector<int> lits;
      lits.reserve(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i) lits.push_back(lit(x_at(k, i, j)));
      c.add_exactly_one(lits);
    }
    for (int i = 0; i < m; ++i) {
      std::vector<int> lits;
      lits.reserve(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) lits.push_back(lit(x_at(k, i, j)));
      c.add_at_most_one(lits);
    }
  }

  // --- Eq. (3): mapping changes only at permutation points --------------
  p.y.resize(p.perm_points.size());
  std::size_t point_idx = 0;
  for (int k = 1; k < p.num_gates; ++k) {
    const bool is_point = point_idx < p.perm_points.size() &&
                          p.perm_points[point_idx] == static_cast<std::size_t>(k);
    if (!is_point) {
      // Hard equality x^{k-1} = x^k (no permutation allowed here, Sec. 4.2).
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          c.add_equal_lits(lit(x_at(k - 1, i, j)), lit(x_at(k, i, j)));
        }
      }
      continue;
    }
    auto& ys = p.y[point_idx];
    ys.reserve(p.perms.size());
    std::vector<int> y_lits;
    y_lits.reserve(p.perms.size());
    for (std::size_t q = 0; q < p.perms.size(); ++q) {
      const int yv = c.new_bool();
      ys.push_back(yv);
      y_lits.push_back(lit(yv));
      // y^k_π → ∧_{i,j} (x^{k-1}_ij = x^k_{π(i)j})
      const Permutation& pi = p.perms[q];
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          c.add_implies_equal(lit(yv), lit(x_at(k - 1, i, j)),
                              lit(x_at(k, pi.at(static_cast<std::size_t>(i)), j)));
        }
      }
    }
    c.add_exactly_one(y_lits);
    ++point_idx;
  }

  p.var_count = static_cast<std::size_t>(c.var_count_);
  p.clause_count = c.clauses_.size();
  p.clauses = std::move(c.clauses_);
  return p;
}

Encoding::Encoding(reason::ReasoningEngine& engine, const std::vector<Gate>& cnots,
                   int num_logical, const arch::CouplingMap& cm,
                   const arch::SwapCostTable& table, const std::vector<std::size_t>& perm_points,
                   const CostModel& costs)
    : Encoding(engine, build_prefix(cnots, num_logical, cm.num_physical(), perm_points), cm,
               table, costs, /*engine_holds_prefix=*/false, /*mark=*/false) {}

Encoding::Encoding(reason::ReasoningEngine& engine, const Prefix& prefix,
                   const arch::CouplingMap& cm, const arch::SwapCostTable& table,
                   const CostModel& costs, bool engine_holds_prefix)
    : Encoding(engine, prefix, cm, table, costs, engine_holds_prefix, /*mark=*/true) {}

Encoding::Encoding(reason::ReasoningEngine& engine, const Prefix& prefix,
                   const arch::CouplingMap& cm, const arch::SwapCostTable& table,
                   const CostModel& costs, bool engine_holds_prefix, bool mark)
    : engine_(engine),
      num_gates_(prefix.num_gates),
      m_(prefix.m),
      n_(prefix.n),
      gates_(prefix.gates),
      costs_(costs),
      perm_points_(prefix.perm_points),
      perms_(prefix.perms),
      x_(prefix.x),
      y_(prefix.y),
      var_count_(prefix.var_count),
      clause_count_(prefix.clause_count) {
  if (cm.num_physical() != m_) {
    throw std::invalid_argument("Encoding: coupling map size does not match the prefix");
  }
  if (costs_.swap_cost <= 0 || costs_.reverse_cost <= 0) {
    throw std::invalid_argument("Encoding: cost weights must be resolved and positive");
  }

  // swaps(π) is a property of the induced coupling map — per-instance.
  perm_swaps_.reserve(perms_.size());
  for (const auto& pi : perms_) perm_swaps_.push_back(table.swaps(pi));

  if (!engine_holds_prefix) {
    // Replay the prefix, remapping prefix-local variable ids into the
    // engine. The map must be the identity — the suffix below and decode()
    // address prefix variables by their prefix-local ids, and an engine
    // restored by reset_to_prefix() re-enters at exactly this state — so
    // the engine has to be fresh.
    for (std::size_t v = 0; v < prefix.var_count; ++v) {
      if (engine_.new_bool() != static_cast<int>(v)) {
        throw std::logic_error("Encoding: prefix replay requires a fresh engine");
      }
    }
    for (const auto& clause : prefix.clauses) engine_.add_clause(clause);
    // Snapshot the engine at the prefix boundary so sibling instances can
    // reset_to_prefix() instead of replaying. Backends without snapshot
    // support return false; callers then recreate the engine per instance.
    if (mark) engine_.mark_prefix();
  }

  encode_suffix(cm);
}

void Encoding::encode_suffix(const arch::CouplingMap& cm) {
  // --- Eqs. (2) and (4): coupling satisfaction + direction switches -----
  z_.resize(static_cast<std::size_t>(num_gates_));
  for (int k = 0; k < num_gates_; ++k) {
    const int qc = gates_[static_cast<std::size_t>(k)].first;
    const int qt = gates_[static_cast<std::size_t>(k)].second;
    std::vector<int> forward_terms;
    std::vector<int> reverse_terms;
    for (const auto& [pi, pj] : cm.edges()) {
      // Forward: control on p_i, target on p_j (edge direction matches).
      forward_terms.push_back(
          lit(engine_.make_and(lit(x_var(k, pi, qc)), lit(x_var(k, pj, qt)))));
      // Reverse: target on p_i, control on p_j (needs 4 H gates).
      reverse_terms.push_back(
          lit(engine_.make_and(lit(x_var(k, pi, qt)), lit(x_var(k, pj, qc)))));
      clause_count_ += 6;
      var_count_ += 2;
    }
    // Eq. (2): some orientation must be executable.
    std::vector<int> any;
    any.reserve(forward_terms.size() + reverse_terms.size());
    any.insert(any.end(), forward_terms.begin(), forward_terms.end());
    any.insert(any.end(), reverse_terms.begin(), reverse_terms.end());
    engine_.add_at_least_one(any);
    ++clause_count_;

    // Eq. (4), strengthened: z^k ↔ reverse-only placement.
    const int fwd_or = engine_.make_or(forward_terms);
    const int rev_or = engine_.make_or(reverse_terms);
    z_[static_cast<std::size_t>(k)] = engine_.make_and(lit(rev_or), -lit(fwd_or));
    var_count_ += 3;
    clause_count_ += 2 * (forward_terms.size() + 1) + 3;
    engine_.add_cost(z_[static_cast<std::size_t>(k)], costs_.reverse_cost);
  }

  // --- Eq. (5): a swap-count ladder per point (see encoder.hpp) ---------
  const int max_swaps = *std::max_element(perm_swaps_.begin(), perm_swaps_.end());
  for (const auto& ys : y_) {
    std::vector<int> rung(static_cast<std::size_t>(max_swaps) + 1);  // rung[s] = c_s, s >= 1
    std::vector<std::vector<int>> support(rung.size());  // support[s] = ¬c_s ∨ y_π ...
    for (int s = 1; s <= max_swaps; ++s) {
      const auto si = static_cast<std::size_t>(s);
      rung[si] = engine_.new_bool();
      engine_.add_cost(rung[si], costs_.swap_cost);
      support[si].push_back(-lit(rung[si]));
      if (s > 1) engine_.add_clause({-lit(rung[si]), lit(rung[si - 1])});  // c_s → c_{s-1}
    }
    for (std::size_t q = 0; q < perms_.size(); ++q) {
      const auto sw = static_cast<std::size_t>(perm_swaps_[q]);
      if (sw == 0) continue;
      engine_.add_clause({-lit(ys[q]), lit(rung[sw])});  // y_π → c_{swaps(π)}
      for (std::size_t s = 1; s <= sw; ++s) support[s].push_back(lit(ys[q]));
      ++clause_count_;
    }
    // c_s → ∨{ y_π : swaps(π) >= s }
    for (int s = 1; s <= max_swaps; ++s) engine_.add_clause(support[static_cast<std::size_t>(s)]);
    var_count_ += static_cast<std::size_t>(max_swaps);
    if (max_swaps > 0) clause_count_ += 2 * static_cast<std::size_t>(max_swaps) - 1;
  }
}

Encoding::Solution Encoding::decode() const {
  Solution sol;
  sol.layouts.assign(static_cast<std::size_t>(num_gates_),
                     std::vector<int>(static_cast<std::size_t>(n_), -1));
  for (int k = 0; k < num_gates_; ++k) {
    for (int j = 0; j < n_; ++j) {
      for (int i = 0; i < m_; ++i) {
        if (engine_.value(x_var(k, i, j))) {
          if (sol.layouts[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] != -1) {
            throw std::logic_error("Encoding::decode: logical qubit mapped twice");
          }
          sol.layouts[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] = i;
        }
      }
      if (sol.layouts[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] == -1) {
        throw std::logic_error("Encoding::decode: logical qubit unmapped");
      }
    }
  }
  sol.reversed.resize(static_cast<std::size_t>(num_gates_));
  for (int k = 0; k < num_gates_; ++k) {
    sol.reversed[static_cast<std::size_t>(k)] = engine_.value(z_[static_cast<std::size_t>(k)]);
    if (sol.reversed[static_cast<std::size_t>(k)]) sol.cost_f += costs_.reverse_cost;
  }
  for (std::size_t p = 0; p < perm_points_.size(); ++p) {
    int chosen = -1;
    for (std::size_t q = 0; q < perms_.size(); ++q) {
      if (engine_.value(y_[p][q])) {
        if (chosen != -1) throw std::logic_error("Encoding::decode: two permutations chosen");
        chosen = static_cast<int>(q);
      }
    }
    if (chosen == -1) throw std::logic_error("Encoding::decode: no permutation chosen at point");
    sol.point_perms.push_back(perms_[static_cast<std::size_t>(chosen)]);
    sol.cost_f += static_cast<long long>(costs_.swap_cost) *
                  perm_swaps_[static_cast<std::size_t>(chosen)];
  }
  return sol;
}

}  // namespace qxmap::exact
