#include "reason/z3_engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include <z3++.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::reason {

struct Z3Engine::Impl {
  z3::context ctx;
  z3::optimize opt{ctx};
  std::vector<z3::expr> vars;
  std::vector<std::pair<int, int>> cost_terms;  // (var id, weight)
  long long total_weight = 0;                   // Σ weights; bounds >= this are vacuous
  long long applied_bound = ReasoningEngine::kNoBound;  // tightest PB bound asserted
  std::vector<bool> model_values;
  bool has_model = false;

  /// Asserts `Σ wᵢ·vᵢ <= bound` as a hard constraint (no-op when a bound at
  /// least as tight is already asserted, or when the bound is vacuous).
  void apply_bound(long long bound) {
    if (bound >= applied_bound) return;
    applied_bound = bound;
    if (bound >= total_weight) return;  // cannot cut anything
    if (bound < 0) {
      // Nothing costs less than 0; the bounded formula is empty.
      opt.add(ctx.bool_val(false));
      return;
    }
    if (bound > std::numeric_limits<int>::max()) return;  // pble takes int; hint, so sound to skip
    z3::expr_vector es(ctx);
    std::vector<int> coeffs;
    coeffs.reserve(cost_terms.size());
    for (const auto& [var, weight] : cost_terms) {
      es.push_back(vars[static_cast<std::size_t>(var)]);
      coeffs.push_back(weight);
    }
    opt.add(z3::pble(es, coeffs.data(), static_cast<int>(bound)));
  }

  /// Stores every variable's value in `m` as the current model.
  void take_model(const z3::model& m) {
    model_values.assign(vars.size(), false);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      model_values[i] = m.eval(vars[i], /*model_completion=*/true).is_true();
    }
    has_model = true;
  }
};

Z3Engine::Z3Engine() : impl_(std::make_unique<Impl>()) {}
Z3Engine::~Z3Engine() = default;

int Z3Engine::new_bool() {
  const int id = static_cast<int>(impl_->vars.size());
  // Built via += because `"b" + std::to_string(id)` trips GCC 12's
  // -Wrestrict false positive at -O3.
  std::string name = "b";
  name += std::to_string(id);
  impl_->vars.push_back(impl_->ctx.bool_const(name.c_str()));
  return id;
}

void Z3Engine::add_clause(const std::vector<int>& lits) {
  z3::expr_vector disj(impl_->ctx);
  for (const int l : lits) {
    if (l == 0) throw std::invalid_argument("Z3Engine::add_clause: zero literal");
    const auto id = static_cast<std::size_t>(std::abs(l)) - 1;
    if (id >= impl_->vars.size()) throw std::out_of_range("Z3Engine::add_clause: unknown variable");
    disj.push_back(l > 0 ? impl_->vars[id] : !impl_->vars[id]);
  }
  impl_->opt.add(z3::mk_or(disj));
}

void Z3Engine::add_cost(int var, long long weight) {
  if (weight <= 0) throw std::invalid_argument("Z3Engine::add_cost: weight must be positive");
  if (weight > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("Z3Engine::add_cost: weight exceeds the PB coefficient range");
  }
  const auto id = static_cast<std::size_t>(var);
  if (id >= impl_->vars.size()) throw std::out_of_range("Z3Engine::add_cost: unknown variable");
  // Soft constraint "var is false" with the given weight: violating it
  // (var = true) incurs `weight`, matching the semantics of Eq. 5. The same
  // term feeds the hard PB constraint of apply_bound.
  impl_->opt.add_soft(!impl_->vars[id], static_cast<unsigned>(weight));
  impl_->cost_terms.emplace_back(var, static_cast<int>(weight));
  impl_->total_weight += weight;
}

void Z3Engine::set_upper_bound(long long bound) {
  if (bound < 0) throw std::invalid_argument("Z3Engine::set_upper_bound: negative bound");
  impl_->apply_bound(bound);
}

Outcome Z3Engine::minimize(std::chrono::milliseconds budget) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + budget;
  obs::Span span("z3.minimize", "z3");
  span.attr("budget_ms", static_cast<long long>(budget.count()));
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& checks_total = registry.counter(
      "qxmap_z3_checks_total", "Z3 optimize check() calls (sliced re-checks included)");
  // The same bound-protocol counters CdclEngine publishes; polls happen
  // once per slice, so they are counted as they occur.
  static obs::Counter& polls_total = registry.counter(
      "qxmap_engine_bound_polls_total", "Shared-bound consultations at engine checkpoints");
  static obs::Counter& tightenings_total =
      registry.counter("qxmap_engine_bound_tightenings_total",
                       "Polls that strictly tightened an engine's external bound");

  Outcome out;
  // Each z3::check() restarts the search, so slicing trades contiguous
  // solve time for poll opportunities. The slice doubles after every
  // fruitless checkpoint (bounding total restart waste by ~the final
  // slice) and snaps back to kPollInterval when a tighter bound lands —
  // fresh pruning information makes a short re-check worthwhile again.
  auto slice_cap = kPollInterval;
  for (;;) {
    // Checkpoint: adopt any bound published since the previous slice. Z3
    // cannot take constraints mid-check, so cooperative tightening re-solves
    // in budget slices instead (see the header comment).
    if (has_bound_source()) {
      const long long ext = poll_bound_source();
      polls_total.inc();
      if (ext < impl_->applied_bound) {
        ++stats_.bound_tightenings;
        tightenings_total.inc();
        if (obs::TraceRecorder::enabled()) {
          obs::Span::instant("z3.tighten", "z3", {{"bound", std::to_string(ext)}});
        }
        impl_->apply_bound(ext);
        slice_cap = kPollInterval;
      }
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (remaining.count() <= 0) {
      out.status = Status::Unknown;
      span.attr("status", to_string(out.status));
      return out;
    }
    const auto slice = has_bound_source() ? std::min(remaining, slice_cap) : remaining;
    slice_cap *= 2;
    z3::params p(impl_->ctx);
    p.set("timeout", static_cast<unsigned>(slice.count()));
    impl_->opt.set(p);

    const auto check_start = Clock::now();
    checks_total.inc();
    z3::check_result r;
    {
      obs::Span check_span("z3.check", "z3");
      check_span.attr("slice_ms", static_cast<long long>(slice.count()));
      r = impl_->opt.check();
      check_span.attr("result", r == z3::sat      ? "sat"
                                : r == z3::unsat  ? "unsat"
                                                  : "unknown");
    }
    const auto check_elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - check_start);
    if (r == z3::unsat) {
      // True unsatisfiability or "nothing at or below the asserted bound" —
      // the caller treats both as "cannot beat the incumbent".
      out.status = Status::Unsat;
      span.attr("status", to_string(out.status));
      return out;
    }
    if (r == z3::unknown) {
      // Only a slice-expiry unknown is worth retrying; an instant give-up
      // (memout, incompleteness) would spin through the rest of the budget
      // in fruitless restarts. A timeout-driven unknown consumes roughly
      // the whole slice, so "finished well early" identifies the give-up
      // without depending on Z3 exposing a reason.
      const bool gave_up = check_elapsed + std::chrono::milliseconds(50) < slice;
      if (!has_bound_source() || gave_up) {
        out.status = Status::Unknown;
        span.attr("status", to_string(out.status));
        return out;
      }
      continue;  // slice expired: poll and re-check with the remaining budget
    }
    // sat: Z3's optimize has proven the soft-constraint optimum (subject to
    // the asserted PB bounds, so the model respects the tightest bound).
    impl_->take_model(impl_->opt.get_model());
    long long cost = 0;
    // Objective value: sum of weights of soft constraints violated. Z3
    // exposes it per objective; report Z3's first objective when present —
    // the caller recomputes the domain cost anyway.
    if (impl_->opt.objectives().size() > 0) {
      const z3::expr obj = impl_->opt.lower(0);
      if (obj.is_numeral()) cost = obj.get_numeral_int64();
    }
    out.status = Status::Optimal;
    out.cost = cost;
    span.attr("status", to_string(out.status));
    span.attr("cost", cost);
    return out;
  }
}

Outcome Z3Engine::find_model(std::chrono::milliseconds budget) {
  obs::Span span("z3.find_model", "z3");
  span.attr("budget_ms", static_cast<long long>(budget.count()));
  // The optimize context's assertions are the hard clauses plus every PB
  // bound apply_bound added; the soft terms live apart as its objective.
  z3::solver solver(impl_->ctx);
  solver.add(impl_->opt.assertions());
  solver.set("timeout", static_cast<unsigned>(std::max<long long>(1, budget.count())));
  Outcome out;
  const z3::check_result r = solver.check();
  if (r == z3::sat) {
    impl_->take_model(solver.get_model());
    for (const auto& [var, weight] : impl_->cost_terms) {
      if (impl_->model_values[static_cast<std::size_t>(var)]) out.cost += weight;
    }
    out.status = out.cost == 0 ? Status::Optimal : Status::Feasible;
  } else {
    out.status = r == z3::unsat ? Status::Unsat : Status::Unknown;
  }
  span.attr("status", to_string(out.status));
  span.attr("cost", out.cost);
  return out;
}

bool Z3Engine::value(int var) const {
  if (!impl_->has_model) throw std::logic_error("Z3Engine::value: no model available");
  return impl_->model_values.at(static_cast<std::size_t>(var));
}

}  // namespace qxmap::reason
