#include "reason/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "common/rng.hpp"
#include "exact/types.hpp"
#include "metric_delta.hpp"
#include "reason/cdcl_engine.hpp"

namespace qxmap {
namespace {

using reason::EngineKind;
using reason::make_engine;
using reason::Status;

constexpr auto kBudget = std::chrono::milliseconds(10000);

/// Engine kinds genuinely distinct in this build: without Z3 support,
/// EngineKind::Z3 degrades to CDCL, so running it would duplicate coverage.
std::vector<EngineKind> distinct_engine_kinds() {
  if (reason::z3_available()) return {EngineKind::Z3, EngineKind::Cdcl};
  return {EngineKind::Cdcl};
}

class EngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineTest, TrivialSat) {
  auto e = make_engine(GetParam());
  const int v = e->new_bool();
  e->add_clause({v + 1});
  const auto out = e->minimize(kBudget);
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 0);
  EXPECT_TRUE(e->value(v));
}

TEST_P(EngineTest, TrivialUnsat) {
  auto e = make_engine(GetParam());
  const int v = e->new_bool();
  e->add_clause({v + 1});
  e->add_clause({-(v + 1)});
  EXPECT_EQ(e->minimize(kBudget).status, Status::Unsat);
}

TEST_P(EngineTest, PrefersCheapAssignment) {
  auto e = make_engine(GetParam());
  const int a = e->new_bool();
  const int b = e->new_bool();
  e->add_clause({a + 1, b + 1});  // at least one
  e->add_cost(a, 10);
  e->add_cost(b, 3);
  const auto out = e->minimize(kBudget);
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_FALSE(e->value(a));
  EXPECT_TRUE(e->value(b));
}

TEST_P(EngineTest, ExactlyOneChoosesMinimumWeight) {
  auto e = make_engine(GetParam());
  std::vector<int> vars;
  std::vector<int> lits;
  const long long weights[] = {7, 14, 4, 21, 28};
  for (int i = 0; i < 5; ++i) {
    vars.push_back(e->new_bool());
    lits.push_back(vars.back() + 1);
  }
  e->add_exactly_one(lits);
  for (int i = 0; i < 5; ++i) e->add_cost(vars[static_cast<std::size_t>(i)], weights[i]);
  const auto out = e->minimize(kBudget);
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_TRUE(e->value(vars[2]));  // weight 4
}

TEST_P(EngineTest, FindModelReturnsOneModelUnderTheBound) {
  // find_model stops at the first model at or below the bound: its cost is
  // the chosen variable's weight, never above the bound; a bound below
  // every model is Unsat; a model of cost 0 is Optimal.
  const long long weights[] = {7, 14, 4, 21, 28};
  for (const long long bound : {28LL, 14LL, 4LL, 3LL}) {
    auto e = make_engine(GetParam());
    std::vector<int> vars;
    std::vector<int> lits;
    for (int i = 0; i < 5; ++i) {
      vars.push_back(e->new_bool());
      lits.push_back(vars.back() + 1);
    }
    e->add_exactly_one(lits);
    for (int i = 0; i < 5; ++i) e->add_cost(vars[static_cast<std::size_t>(i)], weights[i]);
    e->set_upper_bound(bound);
    const auto out = e->find_model(kBudget);
    if (bound < 4) {
      EXPECT_EQ(out.status, Status::Unsat) << bound;
      continue;
    }
    ASSERT_EQ(out.status, Status::Feasible) << bound;
    EXPECT_LE(out.cost, bound);
    long long chosen = 0;
    for (int i = 0; i < 5; ++i) {
      if (e->value(vars[static_cast<std::size_t>(i)])) chosen += weights[i];
    }
    EXPECT_EQ(chosen, out.cost) << bound;
  }
  auto free_run = make_engine(GetParam());
  const int a = free_run->new_bool();
  free_run->add_clause({a + 1});
  const auto out = free_run->find_model(kBudget);
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 0);
  EXPECT_TRUE(free_run->value(a));
}

TEST_P(EngineTest, BoundCountersReachTheRegistry) {
  // The qxmap_engine_bound_* counters are the only per-request record of
  // the bound protocol, so every engine publishes what its stats() count.
  const testutil::CounterDelta polls("qxmap_engine_bound_polls_total");
  const testutil::CounterDelta tightenings("qxmap_engine_bound_tightenings_total");
  auto e = make_engine(GetParam());
  const int a = e->new_bool();
  const int b = e->new_bool();
  e->add_clause({a + 1, b + 1});
  e->add_cost(a, 3);
  e->add_cost(b, 5);
  e->set_bound_source([] { return 4LL; });
  const auto out = e->minimize(kBudget);
  ASSERT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
  EXPECT_GE(e->stats().bound_tightenings, 1);  // 4 < "no bound known"
  EXPECT_EQ(polls(), static_cast<std::uint64_t>(e->stats().bound_polls));
  EXPECT_EQ(tightenings(), static_cast<std::uint64_t>(e->stats().bound_tightenings));
}

TEST_P(EngineTest, HelpersProduceConsistentCircuits) {
  auto e = make_engine(GetParam());
  const int a = e->new_bool();
  const int b = e->new_bool();
  const int t = e->make_and(a + 1, b + 1);
  e->add_clause({a + 1});
  e->add_clause({b + 1});
  ASSERT_EQ(e->minimize(kBudget).status, Status::Optimal);
  EXPECT_TRUE(e->value(t));
}

TEST_P(EngineTest, MakeOrAndEquality) {
  auto e = make_engine(GetParam());
  const int a = e->new_bool();
  const int b = e->new_bool();
  const int o = e->make_or({a + 1, b + 1});
  e->add_clause({-(a + 1), -(b + 1)});  // a = !b
  e->add_clause({a + 1, b + 1});
  e->add_clause({-(a + 1)});  // a false -> b true -> or true
  ASSERT_EQ(e->minimize(kBudget).status, Status::Optimal);
  EXPECT_TRUE(e->value(b));
  EXPECT_TRUE(e->value(o));
}

/// Status of a fresh engine holding `lits` under at-most-one, with input i
/// fixed true iff bit i of `mask` is set.
Status at_most_one_status(EngineKind kind, int n, std::uint32_t mask) {
  auto e = make_engine(kind);
  std::vector<int> lits;
  for (int i = 0; i < n; ++i) lits.push_back(e->new_bool() + 1);
  e->add_at_most_one(lits);
  for (int i = 0; i < n; ++i) {
    const int lit = lits[static_cast<std::size_t>(i)];
    e->add_clause({((mask >> i) & 1u) != 0 ? lit : -lit});
  }
  return e->minimize(kBudget).status;
}

TEST_P(EngineTest, LadderAtMostOneAdmitsExactlyTheSingletons) {
  // n > 6 takes the sequential encoding that Eqs. (1) and (3) reach on
  // wide architectures and on the n! permutation choices for n >= 4.
  for (const int n : {7, 10}) {
    EXPECT_EQ(at_most_one_status(GetParam(), n, 0u), Status::Optimal) << "n=" << n;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(at_most_one_status(GetParam(), n, 1u << i), Status::Optimal)
          << "n=" << n << " true=" << i;
      for (int j = i + 1; j < n; ++j) {
        EXPECT_EQ(at_most_one_status(GetParam(), n, (1u << i) | (1u << j)), Status::Unsat)
            << "n=" << n << " true=" << i << "," << j;
      }
    }
  }
}

/// Every assignment of the inputs `build` returns (positive literals) that
/// extends to a model of the formula it adds, as bitmasks. An engine holds
/// one formula, so each round rebuilds a fresh engine with the models found
/// so far blocked.
std::vector<std::uint32_t> input_models(
    EngineKind kind, const std::function<std::vector<int>(reason::ReasoningEngine&)>& build) {
  std::vector<std::vector<int>> blocked;
  std::vector<std::uint32_t> models;
  while (models.size() <= 64) {
    auto e = make_engine(kind);
    const auto lits = build(*e);
    for (const auto& clause : blocked) e->add_clause(clause);
    if (e->minimize(kBudget).status != Status::Optimal) break;
    std::uint32_t mask = 0;
    std::vector<int> block;
    for (std::size_t i = 0; i < lits.size(); ++i) {
      const bool v = e->value(lits[i] - 1);
      if (v) mask |= 1u << i;
      block.push_back(v ? -lits[i] : lits[i]);
    }
    models.push_back(mask);
    blocked.push_back(std::move(block));
  }
  return models;
}

/// `n` fresh input variables as positive literals.
std::vector<int> fresh_inputs(reason::ReasoningEngine& e, int n) {
  std::vector<int> lits;
  for (int i = 0; i < n; ++i) lits.push_back(e.new_bool() + 1);
  return lits;
}

class EngineAtMostOne : public ::testing::TestWithParam<std::tuple<EngineKind, int>> {};

TEST_P(EngineAtMostOne, AllowsExactlyNPlusOneModels) {
  // Sizes on both sides of the pairwise/ladder switch at n = 6.
  const auto [kind, n] = GetParam();
  const auto models = input_models(kind, [n = n](reason::ReasoningEngine& e) {
    auto lits = fresh_inputs(e, n);
    e.add_at_most_one(lits);
    return lits;
  });
  // The empty assignment plus the n singletons.
  EXPECT_EQ(models.size(), static_cast<std::size_t>(n) + 1);
  for (const auto mask : models) EXPECT_LE(std::popcount(mask), 1) << "mask " << mask;
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, EngineAtMostOne,
    ::testing::Combine(::testing::ValuesIn(distinct_engine_kinds()),
                       ::testing::Values(1, 2, 3, 6, 7, 10, 15)));

class EngineExactlyOne : public ::testing::TestWithParam<std::tuple<EngineKind, int>> {};

TEST_P(EngineExactlyOne, AllowsExactlyNModels) {
  const auto [kind, n] = GetParam();
  const auto models = input_models(kind, [n = n](reason::ReasoningEngine& e) {
    auto lits = fresh_inputs(e, n);
    e.add_exactly_one(lits);
    return lits;
  });
  EXPECT_EQ(models.size(), static_cast<std::size_t>(n));
  for (const auto mask : models) EXPECT_EQ(std::popcount(mask), 1) << "mask " << mask;
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, EngineExactlyOne,
    ::testing::Combine(::testing::ValuesIn(distinct_engine_kinds()),
                       ::testing::Values(1, 2, 5, 8, 12)));

TEST_P(EngineTest, AtLeastOneExcludesOnlyTheAllFalseAssignment) {
  const auto models = input_models(GetParam(), [](reason::ReasoningEngine& e) {
    auto lits = fresh_inputs(e, 3);
    e.add_at_least_one(lits);
    return lits;
  });
  EXPECT_EQ(models.size(), 7u);
  for (const auto mask : models) EXPECT_NE(mask, 0u);
}

TEST_P(EngineTest, MakeAndTruthTable) {
  for (const bool av : {false, true}) {
    for (const bool bv : {false, true}) {
      auto e = make_engine(GetParam());
      const int a = e->new_bool() + 1;
      const int b = e->new_bool() + 1;
      const int t = e->make_and(a, b);
      e->add_clause({av ? a : -a});
      e->add_clause({bv ? b : -b});
      ASSERT_EQ(e->minimize(kBudget).status, Status::Optimal);
      EXPECT_EQ(e->value(t), av && bv) << "a=" << av << " b=" << bv;
    }
  }
}

TEST_P(EngineTest, MakeOrTruthTable) {
  for (std::uint32_t mask = 0; mask < 8; ++mask) {
    auto e = make_engine(GetParam());
    const auto lits = fresh_inputs(*e, 3);
    const int t = e->make_or(lits);
    for (std::size_t i = 0; i < lits.size(); ++i) {
      e->add_clause({((mask >> i) & 1u) != 0 ? lits[i] : -lits[i]});
    }
    ASSERT_EQ(e->minimize(kBudget).status, Status::Optimal);
    EXPECT_EQ(e->value(t), mask != 0) << "mask " << mask;
  }
}

TEST_P(EngineTest, MakeOrOfNothingIsFixedFalse) {
  auto free_run = make_engine(GetParam());
  const int t = free_run->make_or({});
  ASSERT_EQ(free_run->minimize(kBudget).status, Status::Optimal);
  EXPECT_FALSE(free_run->value(t));

  auto forced = make_engine(GetParam());
  forced->add_clause({forced->make_or({}) + 1});
  EXPECT_EQ(forced->minimize(kBudget).status, Status::Unsat);
}

/// Brute-force reference for small weighted MaxSAT instances.
struct BruteInstance {
  int num_vars = 0;
  std::vector<std::vector<int>> clauses;           // DIMACS-like literals
  std::vector<std::pair<int, long long>> costs;    // (var, weight)
};

long long brute_min_cost(const BruteInstance& inst) {
  long long best = std::numeric_limits<long long>::max();
  for (std::uint32_t mask = 0; mask < (1u << inst.num_vars); ++mask) {
    bool ok = true;
    for (const auto& cl : inst.clauses) {
      bool any = false;
      for (const int l : cl) {
        const int var = std::abs(l) - 1;
        const bool val = ((mask >> var) & 1u) != 0;
        if (val == (l > 0)) {
          any = true;
          break;
        }
      }
      if (!any) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    long long c = 0;
    for (const auto& [var, w] : inst.costs) {
      if ((mask >> var) & 1u) c += w;
    }
    best = std::min(best, c);
  }
  return best;
}

class EngineRandomOptimization
    : public ::testing::TestWithParam<std::tuple<EngineKind, std::uint64_t>> {};

TEST_P(EngineRandomOptimization, MatchesBruteForceMinimum) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  BruteInstance inst;
  inst.num_vars = 10;
  // Random satisfiable-ish 2/3-SAT with random weights (the paper's Eq. 5
  // uses weights 4 and multiples of 7; draw from that set).
  const long long weight_pool[] = {4, 7, 14, 21};
  for (int c = 0; c < 18; ++c) {
    std::vector<int> cl;
    const int len = 2 + static_cast<int>(rng.next_below(2));
    for (int k = 0; k < len; ++k) {
      const int var = static_cast<int>(rng.next_below(10)) + 1;
      cl.push_back(rng.next_bool(0.5) ? var : -var);
    }
    inst.clauses.push_back(std::move(cl));
  }
  for (int v = 0; v < 10; ++v) {
    if (rng.next_bool(0.7)) {
      inst.costs.emplace_back(v, weight_pool[rng.next_below(4)]);
    }
  }

  const long long expected = brute_min_cost(inst);

  auto e = make_engine(kind);
  for (int v = 0; v < inst.num_vars; ++v) e->new_bool();
  for (const auto& cl : inst.clauses) e->add_clause(cl);
  for (const auto& [var, w] : inst.costs) e->add_cost(var, w);
  const auto out = e->minimize(kBudget);

  if (expected == std::numeric_limits<long long>::max()) {
    EXPECT_EQ(out.status, Status::Unsat);
    return;
  }
  ASSERT_EQ(out.status, Status::Optimal);
  // Recompute the model cost independently of the engine's report.
  long long model_cost = 0;
  for (const auto& [var, w] : inst.costs) {
    if (e->value(var)) model_cost += w;
  }
  EXPECT_EQ(model_cost, expected);
  // The model must satisfy all clauses.
  for (const auto& cl : inst.clauses) {
    bool any = false;
    for (const int l : cl) {
      if (e->value(std::abs(l) - 1) == (l > 0)) any = true;
    }
    EXPECT_TRUE(any);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, EngineRandomOptimization,
    ::testing::Combine(::testing::ValuesIn(distinct_engine_kinds()),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u)));

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineTest,
                         ::testing::ValuesIn(distinct_engine_kinds()));

TEST(EngineFactory, Names) {
  // Without Z3 support compiled in, make_engine(Z3) degrades to CDCL.
  const std::string z3_name = reason::z3_available() ? "z3" : "cdcl";
  EXPECT_EQ(make_engine(EngineKind::Z3)->name(), z3_name);
  EXPECT_EQ(make_engine(EngineKind::Cdcl)->name(), "cdcl");
  EXPECT_EQ(reason::to_string(EngineKind::Z3), "z3");
  EXPECT_EQ(reason::to_string(EngineKind::Cdcl), "cdcl");
}

TEST(EngineFactory, DefaultExactEngineIsTheOneThatRuns) {
  // ExactOptions must not default to a backend the build degrades away.
  const EngineKind kind = exact::ExactOptions{}.engine;
  EXPECT_EQ(reason::running_engine(kind), kind);
}

TEST(EngineFactory, DpHasNoReasoningEngine) {
  EXPECT_EQ(reason::to_string(EngineKind::Dp), "dp");
  EXPECT_THROW((void)make_engine(EngineKind::Dp), std::invalid_argument);
}

TEST(CdclBinarySearch, MatchesBruteForceOnRandomInstances) {
  // The assumption-probe binary search against exhaustive enumeration:
  // same status, reported cost equal to the true minimum, and a model that
  // satisfies every clause at that cost.
  for (std::uint64_t seed = 100; seed < 160; ++seed) {
    Rng rng(seed);
    BruteInstance inst;
    inst.num_vars = 9;
    for (int c = 0; c < 15; ++c) {
      std::vector<int> cl;
      for (int k = 0; k < 3; ++k) {
        const int var = static_cast<int>(rng.next_below(9)) + 1;
        cl.push_back(rng.next_bool(0.5) ? var : -var);
      }
      inst.clauses.push_back(std::move(cl));
    }
    for (int v = 0; v < 9; ++v) {
      if (rng.next_bool(0.6)) inst.costs.emplace_back(v, 3 + 2 * v);
    }
    const long long expected = brute_min_cost(inst);

    reason::CdclEngine e;
    for (int v = 0; v < inst.num_vars; ++v) e.new_bool();
    for (const auto& cl : inst.clauses) e.add_clause(cl);
    for (const auto& [var, w] : inst.costs) e.add_cost(var, w);
    const auto out = e.minimize(kBudget);
    if (expected == std::numeric_limits<long long>::max()) {
      EXPECT_EQ(out.status, Status::Unsat) << "seed " << seed;
      continue;
    }
    ASSERT_EQ(out.status, Status::Optimal) << "seed " << seed;
    EXPECT_EQ(out.cost, expected) << "seed " << seed;
    long long model_cost = 0;
    for (const auto& [var, w] : inst.costs) {
      if (e.value(var)) model_cost += w;
    }
    EXPECT_EQ(model_cost, expected) << "seed " << seed;
    for (const auto& cl : inst.clauses) {
      bool any = false;
      for (const int l : cl) {
        if (e.value(std::abs(l) - 1) == (l > 0)) any = true;
      }
      EXPECT_TRUE(any) << "seed " << seed;
    }
  }
}

TEST(CdclBinarySearch, UnsatReported) {
  reason::CdclEngine e;
  const int v = e.new_bool();
  e.add_clause({v + 1});
  e.add_clause({-(v + 1)});
  EXPECT_EQ(e.minimize(kBudget).status, Status::Unsat);
}

TEST(EngineValidation, CostWeightMustBePositive) {
  for (const auto kind : {EngineKind::Z3, EngineKind::Cdcl}) {
    auto e = make_engine(kind);
    const int v = e->new_bool();
    EXPECT_THROW(e->add_cost(v, 0), std::invalid_argument);
    EXPECT_THROW(e->add_cost(v, -3), std::invalid_argument);
  }
}

}  // namespace
}  // namespace qxmap
