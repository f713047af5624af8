/// The CDCL engine's objective bound (cdcl_engine.hpp): a generalized
/// totalizer (GTE) over the weighted Eq. (5) cost literals, clamped at the
/// first bound + 1, enforces "objective <= bound" for the binary search's
/// committed model costs and for the external bounds a subset shard starts
/// from or polls from its siblings.

#include "reason/cdcl_engine.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace qxmap {
namespace {

using reason::CdclEngine;
using reason::Outcome;
using reason::Status;

constexpr auto kBudget = std::chrono::milliseconds(10000);

/// How the bound reaches the engine: fixed before minimize() (a shard's
/// starting bound) or polled from a live source (a sibling's published
/// bound). Both must bound the objective identically.
enum class BoundVia { UpperBound, Source };

class UnitCostBound : public ::testing::TestWithParam<std::tuple<BoundVia, int>> {};

TEST_P(UnitCostBound, BoundAtTheForcedCountIsTight) {
  // Six unit-cost variables, the first k fixed true and the rest free: the
  // optimum is k, reachable under bound k and refuted under bound k - 1.
  const auto [via, k] = GetParam();
  constexpr int kInputs = 6;
  const auto run = [via = via, k = k](long long bound, std::vector<bool>* model) {
    CdclEngine e;
    for (int i = 0; i < kInputs; ++i) {
      const int v = e.new_bool();
      e.add_cost(v, 1);
      if (i < k) e.add_clause({v + 1});
    }
    if (via == BoundVia::UpperBound) {
      e.set_upper_bound(bound);
    } else {
      e.set_bound_source([bound] { return bound; });
    }
    const Outcome out = e.minimize(kBudget);
    if (model != nullptr && out.status == Status::Optimal) {
      for (int v = 0; v < kInputs; ++v) model->push_back(e.value(v));
    }
    return out;
  };

  std::vector<bool> model;
  const Outcome tight = run(k, &model);
  ASSERT_EQ(tight.status, Status::Optimal);
  EXPECT_EQ(tight.cost, k);
  ASSERT_EQ(model.size(), static_cast<std::size_t>(kInputs));
  for (int v = 0; v < kInputs; ++v) {
    EXPECT_EQ(model[static_cast<std::size_t>(v)], v < k) << "var " << v;
  }
  if (k > 0) {
    EXPECT_EQ(run(k - 1, nullptr).status, Status::Unsat);
  }
}

INSTANTIATE_TEST_SUITE_P(BothBoundPaths, UnitCostBound,
                         ::testing::Combine(::testing::Values(BoundVia::UpperBound,
                                                              BoundVia::Source),
                                            ::testing::Values(0, 1, 2, 3, 4, 5)));

TEST(CostBound, WeightedSumsAreExactAgainstEveryBound) {
  // Eq. (5) weights (4 per reversal, multiples of 7 per SWAP). For every
  // fixed assignment and every bound, the formula is satisfiable exactly
  // when the weighted sum fits under the bound — including sums the GTE
  // clamps onto bound + 1 and bounds between two attainable sums.
  const long long weights[] = {4, 7, 7, 14, 21};
  constexpr int kInputs = 5;
  const long long bounds[] = {0, 3, 4, 7, 10, 11, 14, 18, 25, 52, 53};
  for (std::uint32_t mask = 0; mask < (1u << kInputs); ++mask) {
    long long sum = 0;
    for (int i = 0; i < kInputs; ++i) {
      if ((mask >> i) & 1u) sum += weights[i];
    }
    for (const long long bound : bounds) {
      CdclEngine e;
      for (int i = 0; i < kInputs; ++i) {
        const int v = e.new_bool();
        e.add_cost(v, weights[i]);
        e.add_clause({((mask >> i) & 1u) != 0 ? v + 1 : -(v + 1)});
      }
      e.set_upper_bound(bound);
      const Outcome out = e.minimize(kBudget);
      if (sum <= bound) {
        EXPECT_EQ(out.status, Status::Optimal) << "mask " << mask << " bound " << bound;
        EXPECT_EQ(out.cost, sum) << "mask " << mask << " bound " << bound;
      } else {
        EXPECT_EQ(out.status, Status::Unsat) << "mask " << mask << " bound " << bound;
      }
    }
  }
}

TEST(CostBound, ZeroBoundWithoutCostTermsIsOptimal) {
  // No cost literals, so no GTE: every model costs 0 and fits any bound.
  CdclEngine e;
  const int v = e.new_bool();
  e.add_clause({v + 1});
  e.set_upper_bound(0);
  const Outcome out = e.minimize(kBudget);
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 0);
}

TEST(CostBound, SingleCostTermIsBoundedByItsOwnLiteral) {
  // With one term the GTE root is the cost variable itself.
  for (const bool forced : {false, true}) {
    for (const long long bound : {0LL, 6LL, 7LL}) {
      CdclEngine e;
      const int v = e.new_bool();
      e.add_cost(v, 7);
      e.add_clause({forced ? v + 1 : -(v + 1)});
      e.set_upper_bound(bound);
      const Outcome out = e.minimize(kBudget);
      const long long cost = forced ? 7 : 0;
      EXPECT_EQ(out.status, cost <= bound ? Status::Optimal : Status::Unsat)
          << "forced " << forced << " bound " << bound;
      if (out.status == Status::Optimal) {
        EXPECT_EQ(out.cost, cost);
      }
    }
  }
}

TEST(CostBound, PrefixResetRebuildsTheTotalizerForTheNextSuffix) {
  // Subset shards share one clause prefix and add their own costs and
  // bound per instance. A reset must drop the previous instance's GTE and
  // clamp: a stale tree clamped for other weights would mis-bound the next.
  CdclEngine e;
  const int a = e.new_bool();
  const int b = e.new_bool();
  const int c = e.new_bool();
  e.add_clause({a + 1, b + 1, c + 1});
  ASSERT_TRUE(e.mark_prefix());

  e.add_cost(a, 7);
  e.add_cost(b, 4);
  e.add_cost(c, 14);
  e.set_upper_bound(3);
  EXPECT_EQ(e.minimize(kBudget).status, Status::Unsat);

  ASSERT_TRUE(e.reset_to_prefix());
  e.add_cost(a, 1);
  e.add_cost(b, 9);
  e.add_cost(c, 9);
  e.set_upper_bound(1);
  const Outcome second = e.minimize(kBudget);
  ASSERT_EQ(second.status, Status::Optimal);
  EXPECT_EQ(second.cost, 1);
  EXPECT_TRUE(e.value(a));

  ASSERT_TRUE(e.reset_to_prefix());
  e.add_cost(a, 7);
  e.add_cost(b, 4);
  e.add_cost(c, 14);
  const Outcome unbounded = e.minimize(kBudget);
  ASSERT_EQ(unbounded.status, Status::Optimal);
  EXPECT_EQ(unbounded.cost, 4);
  EXPECT_TRUE(e.value(b));
}

}  // namespace
}  // namespace qxmap
