#include "exact/encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "arch/architectures.hpp"
#include "arch/swap_costs.hpp"
#include "common/permutation.hpp"
#include "reason/cdcl_engine.hpp"

namespace qxmap {
namespace {

using exact::CostModel;
using exact::Encoding;
using reason::EngineKind;
using reason::Status;

constexpr auto kBudget = std::chrono::milliseconds(20000);

CostModel qx_costs() {
  CostModel c;
  c.swap_cost = 7;
  c.reverse_cost = 4;
  return c;
}

class EncoderTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EncoderTest, SingleGateNeedsNoOverhead) {
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  auto engine = reason::make_engine(GetParam());
  const std::vector<Gate> cnots{Gate::cnot(0, 1)};
  const Encoding enc(*engine, cnots, 2, cm, table, {}, qx_costs());
  const auto out = engine->minimize(kBudget);
  ASSERT_EQ(out.status, Status::Optimal);
  const auto sol = enc.decode();
  EXPECT_EQ(sol.cost_f, 0);
  EXPECT_FALSE(sol.reversed[0]);
  // The chosen placement must put the pair on a forward edge.
  const int pc = sol.layouts[0][0];
  const int pt = sol.layouts[0][1];
  EXPECT_TRUE(cm.allows(pc, pt));
}

TEST_P(EncoderTest, ForcedReversalCosts4) {
  // Both CNOT orientations between the same logical pair: one must be
  // reversed on an antisymmetric coupling map (cheaper than any SWAP).
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  auto engine = reason::make_engine(GetParam());
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 0)};
  const Encoding enc(*engine, cnots, 2, cm, table, {1}, qx_costs());
  const auto out = engine->minimize(kBudget);
  ASSERT_EQ(out.status, Status::Optimal);
  const auto sol = enc.decode();
  EXPECT_EQ(sol.cost_f, 4);
  EXPECT_EQ(static_cast<int>(sol.reversed[0]) + static_cast<int>(sol.reversed[1]), 1);
}

TEST_P(EncoderTest, NoPermutationPointsFreezesLayout) {
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  auto engine = reason::make_engine(GetParam());
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 2), Gate::cnot(0, 2)};
  const Encoding enc(*engine, cnots, 3, cm, table, {}, qx_costs());
  const auto out = engine->minimize(kBudget);
  ASSERT_EQ(out.status, Status::Optimal);
  const auto sol = enc.decode();
  EXPECT_EQ(sol.layouts[0], sol.layouts[1]);
  EXPECT_EQ(sol.layouts[1], sol.layouts[2]);
  // A triangle placement exists on QX4 (p1 p2 p3), so no SWAPs are needed;
  // at least one direction must be paid for, since the triangle is not a
  // directed 3-cycle.
  EXPECT_EQ(sol.cost_f % 4, 0);
  EXPECT_LE(sol.cost_f, 8);
}

TEST_P(EncoderTest, UnsatisfiableWithoutPermutations) {
  // All six pairs among 4 qubits interact, but no 4 physical qubits of QX4
  // form a clique: with no permutation points the instance must be UNSAT.
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  auto engine = reason::make_engine(GetParam());
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(2, 3), Gate::cnot(0, 2),
                                Gate::cnot(1, 3), Gate::cnot(0, 3), Gate::cnot(1, 2)};
  const Encoding enc(*engine, cnots, 4, cm, table, {}, qx_costs());
  EXPECT_EQ(engine->minimize(kBudget).status, Status::Unsat);
}

TEST_P(EncoderTest, SwapBeatsNothingWhenPairsConflict) {
  // CX(0,1) then CX(0,2) then CX(1,2) on a *line* architecture 0-1-2:
  // the three pairs cannot all be adjacent under one placement, so the
  // optimum uses exactly one SWAP (7) and possibly reversals.
  const auto cm = arch::linear(3);
  const arch::SwapCostTable table(cm);
  auto engine = reason::make_engine(GetParam());
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(0, 2), Gate::cnot(1, 2)};
  const Encoding enc(*engine, cnots, 3, cm, table, {1, 2}, qx_costs());
  const auto out = engine->minimize(kBudget);
  ASSERT_EQ(out.status, Status::Optimal);
  const auto sol = enc.decode();
  EXPECT_GE(sol.cost_f, 7);
  EXPECT_LE(sol.cost_f, 7 + 3 * 4);
  // Exactly one non-identity permutation was chosen.
  int nontrivial = 0;
  for (const auto& pi : sol.point_perms) {
    if (!pi.is_identity()) ++nontrivial;
  }
  EXPECT_EQ(nontrivial, 1);
}

TEST_P(EncoderTest, DecodedLayoutsAreInjective) {
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  auto engine = reason::make_engine(GetParam());
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 2), Gate::cnot(2, 3),
                                Gate::cnot(3, 0)};
  const Encoding enc(*engine, cnots, 4, cm, table, {1, 2, 3}, qx_costs());
  ASSERT_EQ(engine->minimize(kBudget).status, Status::Optimal);
  const auto sol = enc.decode();
  for (const auto& layout : sol.layouts) {
    std::vector<bool> used(5, false);
    for (const int p : layout) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, 5);
      EXPECT_FALSE(used[static_cast<std::size_t>(p)]);
      used[static_cast<std::size_t>(p)] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothEngines, EncoderTest,
                         ::testing::Values(EngineKind::Z3, EngineKind::Cdcl));

/// Records the formula an Encoding emits instead of solving it, so a test
/// can inspect its clauses and cost terms directly.
class FormulaRecorder final : public reason::ReasoningEngine {
 public:
  int new_bool() override { return num_vars++; }
  void add_clause(const std::vector<int>& lits) override { clauses.push_back(lits); }
  void add_cost(int var, long long weight) override { costs.emplace_back(var, weight); }
  reason::Outcome minimize(std::chrono::milliseconds /*budget*/) override {
    throw std::logic_error("FormulaRecorder cannot solve");
  }
  [[nodiscard]] bool value(int /*var*/) const override {
    throw std::logic_error("FormulaRecorder has no model");
  }
  [[nodiscard]] std::string name() const override { return "recorder"; }

  int num_vars = 0;
  std::vector<std::vector<int>> clauses;
  std::vector<std::pair<int, long long>> costs;
};

TEST(Encoder, SwapLadderCountsExactlySwapsOfTheChosenPermutation) {
  // Eq. (5) at a point is a unary ladder of swap-cost rungs over the y's.
  // Forcing one π must leave exactly one rung assignment that satisfies
  // the clauses linking y's and rungs, with swaps(π) rungs true. A ladder
  // linked one way only (y → rung) also admits extra true rungs, so its
  // objective could exceed Eq. (5).
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 2)};
  const auto prefix = Encoding::build_prefix(cnots, 3, cm.num_physical(), {1});
  FormulaRecorder rec;
  const Encoding enc(rec, prefix, cm, table, qx_costs(), /*engine_holds_prefix=*/false);
  EXPECT_EQ(enc.num_variables(), static_cast<std::size_t>(rec.num_vars));
  EXPECT_EQ(enc.num_clauses(), rec.clauses.size());

  // Roles: 1 = y at the point, 2 = rung (a swap-cost term), 0 = other.
  std::vector<int> role(static_cast<std::size_t>(rec.num_vars), 0);
  for (const int y : prefix.y[0]) role[static_cast<std::size_t>(y)] = 1;
  std::vector<int> rungs;
  for (const auto& [var, weight] : rec.costs) {
    if (weight == qx_costs().swap_cost) {
      rungs.push_back(var);
      role[static_cast<std::size_t>(var)] = 2;
    }
  }
  ASSERT_EQ(static_cast<int>(rungs.size()), table.max_swaps());
  ASSERT_LE(rungs.size(), 16u);
  // The clauses over y's and rungs that mention a rung.
  std::vector<std::vector<int>> ladder;
  for (const auto& clause : rec.clauses) {
    bool on_ladder = true;
    bool has_rung = false;
    for (const int l : clause) {
      const int r = role[static_cast<std::size_t>(std::abs(l) - 1)];
      on_ladder = on_ladder && r != 0;
      has_rung = has_rung || r == 2;
    }
    if (on_ladder && has_rung) ladder.push_back(clause);
  }

  std::vector<bool> value(static_cast<std::size_t>(rec.num_vars), false);
  for (std::size_t q = 0; q < prefix.perms.size(); ++q) {
    for (std::size_t i = 0; i < prefix.y[0].size(); ++i) {
      value[static_cast<std::size_t>(prefix.y[0][i])] = (i == q);
    }
    const int want = table.swaps(prefix.perms[q]);
    int models = 0;
    for (std::uint32_t mask = 0; mask < (1u << rungs.size()); ++mask) {
      for (std::size_t s = 0; s < rungs.size(); ++s) {
        value[static_cast<std::size_t>(rungs[s])] = ((mask >> s) & 1u) != 0;
      }
      const bool sat = std::all_of(ladder.begin(), ladder.end(), [&](const auto& clause) {
        return std::any_of(clause.begin(), clause.end(), [&](int l) {
          return value[static_cast<std::size_t>(std::abs(l) - 1)] == (l > 0);
        });
      });
      if (!sat) continue;
      ++models;
      EXPECT_EQ(std::popcount(mask), want) << "permutation " << q;
    }
    EXPECT_EQ(models, 1) << "permutation " << q << " with swaps " << want;
  }
}

/// Status of the prefix alone, replayed into a CdclEngine without cost
/// terms, under unit clauses fixing the literals in `units`.
Status prefix_status(const Encoding::Prefix& prefix, const std::vector<int>& units) {
  reason::CdclEngine engine;
  for (std::size_t v = 0; v < prefix.var_count; ++v) (void)engine.new_bool();
  for (const auto& clause : prefix.clauses) engine.add_clause(clause);
  for (const int l : units) engine.add_clause({l});
  return engine.minimize(kBudget).status;
}

/// Every injective placement of n logical qubits on m physical ones.
std::vector<std::vector<int>> all_layouts(int n, int m) {
  std::vector<std::vector<int>> out;
  for (const auto& pi : Permutation::all(static_cast<std::size_t>(m))) {
    std::vector<int> layout;
    for (int j = 0; j < n; ++j) layout.push_back(pi.at(static_cast<std::size_t>(j)));
    if (std::find(out.begin(), out.end(), layout) == out.end()) out.push_back(layout);
  }
  return out;
}

TEST(Encoder, PermutationLinkAdmitsExactlyTheConsistentPermutations) {
  // Eq. (3) is emitted one way only (y^k_π ∧ x^{k-1}_ij → x^k_{π(i)j}),
  // with at-least-one over the y's when n == m; Eq. (1) must supply the
  // rest. The prefix is coupling-independent, so the m = 3 cases stand for
  // any 3-qubit map, the induced QX4 triangle included. With n == m, π is
  // consistent iff L1 = π∘L0; with n < m, iff π agrees with L1 on the
  // qubits L0 occupies. Both read L1[j] == π(L0[j]) for every j.
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 0)};
  for (const auto& [n, m] : {std::pair{3, 3}, std::pair{2, 3}, std::pair{2, 4}}) {
    const auto prefix = Encoding::build_prefix(cnots, n, m, {1});
    const auto x_lit = [&](int k, int i, int j) {
      return prefix.x[static_cast<std::size_t>((k * m + i) * n + j)] + 1;
    };
    const auto layouts = all_layouts(n, m);
    for (const auto& l0 : layouts) {
      for (const auto& l1 : layouts) {
        for (std::size_t q = 0; q < prefix.perms.size(); ++q) {
          const Permutation& pi = prefix.perms[q];
          std::vector<int> units{prefix.y[0][q] + 1};
          bool consistent = true;
          for (int j = 0; j < n; ++j) {
            const auto p0 = static_cast<std::size_t>(l0[static_cast<std::size_t>(j)]);
            const int p1 = l1[static_cast<std::size_t>(j)];
            units.push_back(x_lit(0, static_cast<int>(p0), j));
            units.push_back(x_lit(1, p1, j));
            consistent = consistent && pi.at(p0) == p1;
          }
          EXPECT_EQ(prefix_status(prefix, units), consistent ? Status::Optimal : Status::Unsat)
              << "n=" << n << " m=" << m << " π#" << q;
        }
      }
    }
    // No two permutations at one point. Eq. (1) implies it when n >= m - 1
    // (two distinct permutations agree on at most m - 2 qubits); at n = 2,
    // m = 4 only the explicit at-most-one forbids it.
    for (std::size_t a = 0; a < prefix.perms.size(); ++a) {
      for (std::size_t b = a + 1; b < prefix.perms.size(); ++b) {
        EXPECT_EQ(prefix_status(prefix, {prefix.y[0][a] + 1, prefix.y[0][b] + 1}), Status::Unsat)
            << "n=" << n << " m=" << m << " π#" << a << " π#" << b;
      }
    }
  }
}

TEST(Encoder, NonPointGatesShareTheirPredecessorsXBlock) {
  // Points {2} over four gates: blocks start at gates 0 and 2, and gates 1
  // and 3 reuse them.
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 2), Gate::cnot(0, 2),
                                Gate::cnot(2, 1)};
  const auto prefix = Encoding::build_prefix(cnots, 3, 3, {2});
  const auto x_block = [&](int k) {
    const auto first = prefix.x.begin() + k * 9;
    return std::vector<int>(first, first + 9);
  };
  EXPECT_EQ(x_block(1), x_block(0));
  EXPECT_EQ(x_block(3), x_block(2));
  EXPECT_NE(x_block(2), x_block(1));
  // Two blocks of 9 x's plus 3! y's; n == m needs no at-most-one ladder.
  EXPECT_EQ(prefix.var_count, 2u * 9u + 6u);
}

TEST(Encoder, ValidationErrors) {
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  auto engine = reason::make_engine(EngineKind::Cdcl);
  const std::vector<Gate> cnots{Gate::cnot(0, 1)};
  EXPECT_THROW(Encoding(*engine, {}, 2, cm, table, {}, qx_costs()), std::invalid_argument);
  EXPECT_THROW(Encoding(*engine, cnots, 6, cm, table, {}, qx_costs()), std::invalid_argument);
  EXPECT_THROW(Encoding(*engine, cnots, 1, cm, table, {}, qx_costs()), std::invalid_argument);
  EXPECT_THROW(Encoding(*engine, cnots, 2, cm, table, {0}, qx_costs()), std::invalid_argument);
  EXPECT_THROW(Encoding(*engine, cnots, 2, cm, table, {5}, qx_costs()), std::invalid_argument);
  const std::vector<Gate> pair{Gate::cnot(0, 1), Gate::cnot(1, 0)};
  EXPECT_THROW(Encoding(*engine, pair, 2, cm, table, {1, 1}, qx_costs()), std::invalid_argument);
  exact::CostModel unresolved;  // swap_cost = -1
  EXPECT_THROW(Encoding(*engine, cnots, 2, cm, table, {}, unresolved), std::invalid_argument);
}

TEST(Encoder, PrefixReplayMatchesClassicConstruction) {
  // Same instance built twice: classic constructor vs. pre-built prefix
  // replayed into a fresh engine. Size accounting and the proven optimum
  // must be identical.
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 2)};
  const std::vector<std::size_t> points{1};

  auto classic_engine = reason::make_engine(EngineKind::Cdcl);
  const Encoding classic(*classic_engine, cnots, 3, cm, table, points, qx_costs());
  const auto classic_out = classic_engine->minimize(kBudget);
  ASSERT_EQ(classic_out.status, Status::Optimal);

  const auto prefix = Encoding::build_prefix(cnots, 3, cm.num_physical(), points);
  EXPECT_GT(prefix.var_count, 0u);
  EXPECT_GT(prefix.clause_count, 0u);
  auto replay_engine = reason::make_engine(EngineKind::Cdcl);
  const Encoding replayed(*replay_engine, prefix, cm, table, qx_costs(),
                          /*engine_holds_prefix=*/false);
  EXPECT_EQ(replayed.num_variables(), classic.num_variables());
  EXPECT_EQ(replayed.num_clauses(), classic.num_clauses());
  const auto replay_out = replay_engine->minimize(kBudget);
  ASSERT_EQ(replay_out.status, classic_out.status);
  EXPECT_EQ(replay_out.cost, classic_out.cost);
  EXPECT_EQ(replayed.decode().cost_f, classic.decode().cost_f);
}

TEST(Encoder, ResetEngineSkipsStraightToTheSuffix) {
  // The shard pattern: replay the prefix once, solve instance 1, reset, emit
  // only instance 2's suffix. Each solve must match a fresh-engine build of
  // the same instance exactly.
  const arch::CouplingMap line_a(3, {{0, 1}, {1, 2}}, "line-a");
  const arch::CouplingMap line_b(3, {{1, 0}, {2, 1}}, "line-b");
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 2), Gate::cnot(0, 2)};
  const std::vector<std::size_t> points{1, 2};
  const auto prefix = Encoding::build_prefix(cnots, 3, 3, points);

  reason::CdclEngine shared;
  int instance = 0;
  for (const auto* cm : {&line_a, &line_b}) {
    const arch::SwapCostTable table(*cm);
    const bool holds = shared.reset_to_prefix();
    EXPECT_EQ(holds, instance > 0) << "reset must succeed exactly after the first mark";
    const Encoding enc(shared, prefix, *cm, table, qx_costs(), holds);
    const auto out = shared.minimize(kBudget);

    reason::CdclEngine fresh;
    const Encoding fresh_enc(fresh, prefix, *cm, table, qx_costs(), /*engine_holds_prefix=*/false);
    const auto fresh_out = fresh.minimize(kBudget);

    ASSERT_EQ(out.status, fresh_out.status) << cm->name();
    ASSERT_EQ(out.status, Status::Optimal) << cm->name();
    EXPECT_EQ(out.cost, fresh_out.cost) << cm->name();
    EXPECT_EQ(enc.num_variables(), fresh_enc.num_variables()) << cm->name();
    EXPECT_EQ(enc.num_clauses(), fresh_enc.num_clauses()) << cm->name();
    ++instance;
  }
}

TEST(Encoder, PrefixReplayDemandsAFreshEngine) {
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  const std::vector<Gate> cnots{Gate::cnot(0, 1)};
  const auto prefix = Encoding::build_prefix(cnots, 2, cm.num_physical(), {});
  auto engine = reason::make_engine(EngineKind::Cdcl);
  (void)engine->new_bool();  // identity variable remap is no longer possible
  EXPECT_THROW(Encoding(*engine, prefix, cm, table, qx_costs(), /*engine_holds_prefix=*/false),
               std::logic_error);
}

TEST(Encoder, PrefixSizeMismatchIsRejected) {
  const std::vector<Gate> cnots{Gate::cnot(0, 1)};
  const auto prefix = Encoding::build_prefix(cnots, 2, 3, {});  // m = 3
  const auto cm = arch::ibm_qx4();                              // m = 5
  const arch::SwapCostTable table(cm);
  auto engine = reason::make_engine(EngineKind::Cdcl);
  EXPECT_THROW(Encoding(*engine, prefix, cm, table, qx_costs(), /*engine_holds_prefix=*/false),
               std::invalid_argument);
}

TEST(Encoder, ReportsInstanceSize) {
  const auto cm = arch::ibm_qx4();
  const arch::SwapCostTable table(cm);
  auto engine = reason::make_engine(EngineKind::Cdcl);
  const std::vector<Gate> cnots{Gate::cnot(0, 1), Gate::cnot(1, 2)};
  const Encoding enc(*engine, cnots, 3, cm, table, {1}, qx_costs());
  // x vars: 2 gates * 5 * 3 = 30; y vars: 120; plus Tseitin terms.
  EXPECT_GE(enc.num_variables(), 150u);
  EXPECT_GT(enc.num_clauses(), 1000u);
  EXPECT_EQ(enc.num_gates(), 2);
  EXPECT_EQ(enc.num_logical(), 3);
  EXPECT_EQ(enc.num_physical(), 5);
}

}  // namespace
}  // namespace qxmap
