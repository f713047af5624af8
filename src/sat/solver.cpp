#include "sat/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace qxmap::sat {

namespace {
constexpr float kClauseDecay = 0.999f;
constexpr float kClauseRescaleLimit = 1e20f;
// Glucose restart parameters: restart when the average LBD of the last
// kRecentLbdWindow learnt clauses exceeds kRestartK times the long-run
// average; block the restart (clear the window) when the trail has grown
// kBlockR times past its running average — the search looks SAT-like, let
// it finish.
constexpr std::size_t kRecentLbdWindow = 50;
constexpr double kRestartK = 0.8;
constexpr double kBlockR = 1.4;
// Variable-decay ramp: 0.8 at the start, +0.01 every 5000 conflicts until
// the steady-state VsidsHeap::kDecay (0.95) is reached.
constexpr double kVsidsDecayStart = 0.8;
constexpr double kVsidsRampStep = 0.01;
constexpr std::uint64_t kVsidsRampInterval = 5000;
}  // namespace

Solver::Solver() {
  // Variable-decay ramp (Glucose): start forgetful so the search localises
  // quickly, settle at the long-run 0.95 as the proof matures.
  heap_.set_decay(kVsidsDecayStart);
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assign_.size());
  assign_.push_back(Value::Undef);
  model_.push_back(false);
  reason_.push_back(kCRefUndef);
  level_.push_back(0);
  saved_phase_.push_back(false);
  seen_.push_back(kSeenUndef);
  level_stamp_.resize(assign_.size() + 1, 0);  // decision levels run 0..num_vars
  watches_.emplace_back();
  watches_.emplace_back();
  heap_.add_var(v);
  return v;
}

bool Solver::add_clause(std::vector<Lit> lits) {
  if (unsat_) return false;
  if (!trail_limits_.empty()) {
    throw std::logic_error("Solver::add_clause: only allowed at decision level 0");
  }
  std::sort(lits.begin(), lits.end());
  // Dedup; detect tautologies; drop level-0 falsified literals and
  // clauses satisfied at level 0. Compacts `lits` in place.
  std::size_t kept = 0;
  Lit prev = Lit::from_index(-2);
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    if (l.var() < 0 || l.var() >= num_vars()) {
      throw std::out_of_range("Solver::add_clause: unknown variable");
    }
    if (l == prev) continue;
    if (prev.index() >= 0 && l == ~prev) return true;  // tautology: x ∨ ¬x
    prev = l;
    const Value val = value(l);
    if (val == Value::True && level_[static_cast<std::size_t>(l.var())] == 0) return true;
    if (val == Value::False && level_[static_cast<std::size_t>(l.var())] == 0) continue;
    lits[kept++] = l;
  }
  lits.resize(kept);

  if (lits.empty()) {
    unsat_ = true;
    return false;
  }
  if (lits.size() == 1) {
    if (value(lits[0]) == Value::True) return true;
    if (value(lits[0]) == Value::False) {
      unsat_ = true;
      return false;
    }
    enqueue(lits[0], kCRefUndef);
    if (propagate() != kCRefUndef) {
      unsat_ = true;
      return false;
    }
    return true;
  }

  const CRef cr = arena_.alloc(lits, /*learnt=*/false);
  clauses_.push_back(cr);
  attach_clause(cr);
  return true;
}

void Solver::attach_clause(CRef cr) {
  const ClauseView c = arena_.view(cr);
  watches_[static_cast<std::size_t>((~c.lit(0)).index())].push_back({cr, c.lit(1)});
  watches_[static_cast<std::size_t>((~c.lit(1)).index())].push_back({cr, c.lit(0)});
}

void Solver::enqueue(Lit l, CRef reason) {
  const auto v = static_cast<std::size_t>(l.var());
  assign_[v] = l.negative() ? Value::False : Value::True;
  reason_[v] = reason;
  level_[v] = static_cast<int>(trail_limits_.size());
  trail_.push_back(l);
  ++stats_.propagations;
}

CRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p is true
    auto& watch_list = watches_[static_cast<std::size_t>(p.index())];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const Watcher w = watch_list[i];
      if (value(w.blocker) == Value::True) {
        watch_list[keep++] = w;
        continue;
      }
      ClauseView c = arena_.view(w.clause);
      if (c.deleted()) continue;  // lazily drop watches of deleted clauses
      const Lit false_lit = ~p;
      if (c.lit(0) == false_lit) c.swap_lits(0, 1);
      // Now c.lit(1) == false_lit.
      const Lit first = c.lit(0);
      if (value(first) == Value::True) {
        watch_list[keep++] = {w.clause, first};
        continue;
      }
      bool moved = false;
      const std::uint32_t size = c.size();
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(c.lit(k)) != Value::False) {
          c.swap_lits(1, k);
          watches_[static_cast<std::size_t>((~c.lit(1)).index())].push_back({w.clause, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict.
      watch_list[keep++] = {w.clause, first};
      if (value(first) == Value::False) {
        // Conflict: keep the remaining watchers and bail out.
        for (std::size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        qhead_ = trail_.size();
        return w.clause;
      }
      enqueue(first, w.clause);
    }
    watch_list.resize(keep);
  }
  return kCRefUndef;
}

void Solver::analyze(CRef conflict, std::vector<Lit>& learnt, int& backjump_level,
                     std::uint32_t& lbd) {
  learnt.clear();
  learnt.push_back(Lit::from_index(-2));  // placeholder for the asserting literal

  const int current_level = static_cast<int>(trail_limits_.size());
  int counter = 0;
  Lit p = Lit::from_index(-2);
  CRef cr = conflict;
  std::size_t trail_index = trail_.size();

  for (;;) {
    ClauseView c = arena_.view(cr);
    if (c.learnt()) {
      bump_clause(cr);
      // On-the-fly LBD update (Glucose): a learnt clause involved in another
      // conflict often spans fewer decision levels by now. Tightening its
      // LBD protects it in ReduceDB — at glue level (<= 2) it becomes
      // permanent. All literals of a conflict/reason clause are assigned
      // here, so their levels are current.
      if (c.lbd() > ReduceDb::kGlueLbd) {
        const std::uint32_t tightened = clause_lbd(c);
        if (tightened < c.lbd()) c.set_lbd(tightened);
      }
    }
    const std::uint32_t start = (p.index() < 0) ? 0 : 1;
    const std::uint32_t size = c.size();
    for (std::uint32_t k = start; k < size; ++k) {
      const Lit q = c.lit(k);
      const auto v = static_cast<std::size_t>(q.var());
      if (seen_[v] == kSeenUndef && level_[v] > 0) {
        seen_[v] = kSeenSource;
        heap_.bump(q.var());
        if (level_[v] >= current_level) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Walk the trail backwards to the next marked literal.
    do {
      --trail_index;
    } while (seen_[static_cast<std::size_t>(trail_[trail_index].var())] == kSeenUndef);
    p = trail_[trail_index];
    cr = reason_[static_cast<std::size_t>(p.var())];
    seen_[static_cast<std::size_t>(p.var())] = kSeenUndef;
    --counter;
    if (counter == 0) break;
    // Reason must exist: p is not a decision while counter > 0.
    if (p.index() >= 0 && cr == kCRefUndef) {
      throw std::logic_error("Solver::analyze: missing reason during resolution");
    }
  }
  learnt[0] = ~p;

  // Minimise the clause. learnt[1..] are still marked as sources; a dropped
  // literal stays a source (it is implied by the ones kept). Every mark set
  // from here on is recorded in analyze_toclear_ and wiped once at the end.
  std::uint32_t abstract_levels = 0;
  analyze_toclear_.clear();
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    analyze_toclear_.push_back(learnt[i].var());
    abstract_levels |= 1u << (level_[static_cast<std::size_t>(learnt[i].var())] & 31);
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const auto v = static_cast<std::size_t>(learnt[i].var());
    if (reason_[v] == kCRefUndef || !literal_redundant(learnt[i], abstract_levels)) {
      learnt[kept++] = learnt[i];
    }
  }
  for (const Var v : analyze_toclear_) seen_[static_cast<std::size_t>(v)] = kSeenUndef;
  learnt.resize(kept);

  lbd = compute_lbd(learnt);

  // Backjump level: highest level among learnt[1..]; move that literal to
  // position 1 so it is watched.
  backjump_level = 0;
  if (learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[static_cast<std::size_t>(learnt[i].var())] >
          level_[static_cast<std::size_t>(learnt[max_i].var())]) {
        max_i = i;
      }
    }
    std::swap(learnt[1], learnt[max_i]);
    backjump_level = level_[static_cast<std::size_t>(learnt[1].var())];
  }
}

std::uint32_t Solver::compute_lbd(const std::vector<Lit>& lits) {
  ++stamp_;
  std::uint32_t lbd = 0;
  for (const Lit l : lits) {
    const auto lev = static_cast<std::size_t>(level_[static_cast<std::size_t>(l.var())]);
    if (level_stamp_[lev] != stamp_) {
      level_stamp_[lev] = stamp_;
      ++lbd;
    }
  }
  return lbd;
}

std::uint32_t Solver::clause_lbd(ClauseView c) {
  ++stamp_;
  std::uint32_t lbd = 0;
  const std::uint32_t size = c.size();
  for (std::uint32_t k = 0; k < size; ++k) {
    const auto lev = static_cast<std::size_t>(level_[static_cast<std::size_t>(c.lit(k).var())]);
    if (level_stamp_[lev] != stamp_) {
      level_stamp_[lev] = stamp_;
      ++lbd;
    }
  }
  return lbd;
}

bool Solver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
  // Iterative DFS over the implication graph (MiniSat 2.2's litRedundant):
  // a literal is redundant iff every antecedent is a source, a level-0 fact
  // or itself redundant. Verdicts persist in seen_ for the rest of this
  // analyze(): a node whose reason is exhausted is removable; reaching a
  // decision, a literal on a level outside the clause, or a failed node
  // fails every unmarked node on the current path. `l` must have a reason.
  redundant_path_.clear();
  Lit p = l;
  ClauseView c = arena_.view(reason_[static_cast<std::size_t>(p.var())]);
  for (std::uint32_t i = 1;; ++i) {
    if (i < c.size()) {
      const Lit q = c.lit(i);
      const auto qv = static_cast<std::size_t>(q.var());
      const std::uint8_t mark = seen_[qv];
      if (level_[qv] == 0 || mark == kSeenSource || mark == kSeenRemovable) continue;
      if (mark == kSeenFailed || reason_[qv] == kCRefUndef ||
          ((1u << (level_[qv] & 31)) & abstract_levels) == 0) {
        redundant_path_.push_back({0, p});
        for (const PathEntry& e : redundant_path_) {
          const auto ev = static_cast<std::size_t>(e.lit.var());
          if (seen_[ev] == kSeenUndef) {
            seen_[ev] = kSeenFailed;
            analyze_toclear_.push_back(e.lit.var());
          }
        }
        return false;
      }
      // Descend into q; the loop increment resumes its reason at index 1.
      redundant_path_.push_back({i, p});
      i = 0;
      p = q;
      c = arena_.view(reason_[qv]);
    } else {
      const auto pv = static_cast<std::size_t>(p.var());
      if (seen_[pv] == kSeenUndef) {
        seen_[pv] = kSeenRemovable;
        analyze_toclear_.push_back(p.var());
      }
      if (redundant_path_.empty()) return true;
      i = redundant_path_.back().index;
      p = redundant_path_.back().lit;
      c = arena_.view(reason_[static_cast<std::size_t>(p.var())]);
      redundant_path_.pop_back();
    }
  }
}

void Solver::backtrack(int target_level) {
  if (static_cast<int>(trail_limits_.size()) <= target_level) return;
  const std::size_t bound = trail_limits_[static_cast<std::size_t>(target_level)];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    saved_phase_[v] = (assign_[v] == Value::True);
    assign_[v] = Value::Undef;
    reason_[v] = kCRefUndef;
    heap_.insert(static_cast<Var>(v));
  }
  trail_.resize(bound);
  trail_limits_.resize(static_cast<std::size_t>(target_level));
  qhead_ = trail_.size();
}

Lit Solver::pick_branch_literal() {
  while (!heap_.empty()) {
    const Var v = heap_.pop();
    if (assign_[static_cast<std::size_t>(v)] == Value::Undef) {
      return Lit(v, !saved_phase_[static_cast<std::size_t>(v)]);
    }
  }
  return Lit::from_index(-2);
}

void Solver::bump_clause(CRef cr) {
  ClauseView c = arena_.view(cr);
  c.set_activity(c.activity() + clause_inc_);
  if (c.activity() > kClauseRescaleLimit) {
    for (const CRef lr : learnts_) {
      ClauseView lc = arena_.view(lr);
      lc.set_activity(lc.activity() * 1e-20f);
    }
    clause_inc_ *= 1e-20f;
  }
}

bool Solver::locked(CRef cr) const {
  const ClauseView c = arena_.view(cr);
  const Lit first = c.lit(0);
  return value(first) == Value::True &&
         reason_[static_cast<std::size_t>(first.var())] == cr;
}

void Solver::reduce_learnts() {
  stats_.learnt_deleted +=
      reduce_db_.reduce(arena_, learnts_, [this](CRef cr) { return locked(cr); });
  stats_.learnt_kept = learnts_.size();
  if (arena_.want_collect()) collect_garbage();
}

void Solver::collect_garbage() {
  ClauseArena to;
  to.reserve(arena_.size_words() - arena_.wasted_words());
  for (CRef& cr : clauses_) cr = arena_.relocate_to(to, cr);
  for (CRef& cr : learnts_) cr = arena_.relocate_to(to, cr);
  for (const Lit l : trail_) {
    CRef& r = reason_[static_cast<std::size_t>(l.var())];
    if (r != kCRefUndef) r = arena_.relocate_to(to, r);
  }
  arena_ = std::move(to);
  rebuild_watches();
}

void Solver::rebuild_watches() {
  for (auto& wl : watches_) wl.clear();
  for (const CRef cr : clauses_) attach_clause(cr);
  for (const CRef cr : learnts_) attach_clause(cr);
}

bool Solver::simplify() {
  if (unsat_) return false;
  backtrack(0);
  if (propagate() != kCRefUndef) {
    unsat_ = true;
    return false;
  }
  if (trail_.size() == simplified_at_trail_) return true;  // no new facts

  // Sweep a clause list under the level-0 assignment: drop satisfied
  // clauses, strip falsified literals, enqueue clauses that became unit.
  const auto sweep = [this](std::vector<CRef>& list) -> bool {
    std::size_t keep = 0;
    for (const CRef cr : list) {
      ClauseView c = arena_.view(cr);
      if (c.deleted()) continue;
      bool satisfied = false;
      std::uint32_t kept_lits = 0;
      const std::uint32_t size = c.size();
      for (std::uint32_t i = 0; i < size; ++i) {
        const Lit l = c.lit(i);
        const Value val = value(l);  // at level 0: True/False are permanent
        if (val == Value::True) {
          satisfied = true;
          break;
        }
        if (val == Value::Undef) c.set_lit(kept_lits++, l);
      }
      if (satisfied) {
        arena_.free_clause(cr);
        continue;
      }
      if (kept_lits == 0) {
        unsat_ = true;
        return false;
      }
      if (kept_lits == 1) {
        enqueue(c.lit(0), kCRefUndef);
        arena_.free_clause(cr);
        continue;
      }
      if (kept_lits < size) arena_.shrink(cr, kept_lits);
      list[keep++] = cr;
    }
    list.resize(keep);
    return true;
  };

  // New units discovered by a sweep falsify more literals; re-sweep until
  // the trail stops growing. (The sweep itself acts as the propagator here —
  // watch lists are stale while literals are being compacted, so propagate()
  // must not run until they are rebuilt below.)
  for (;;) {
    const std::size_t before = trail_.size();
    if (!sweep(clauses_) || !sweep(learnts_)) return false;
    if (trail_.size() == before) break;
  }

  // Level-0 assignments never participate in conflict analysis, so their
  // reasons (possibly freed above) can be forgotten.
  for (const Lit l : trail_) reason_[static_cast<std::size_t>(l.var())] = kCRefUndef;

  qhead_ = trail_.size();  // the sweep fixpoint leaves nothing to propagate
  simplified_at_trail_ = trail_.size();
  if (arena_.want_collect()) {
    collect_garbage();  // rebuilds the watch lists itself
  } else {
    rebuild_watches();
  }
  return true;
}

void Solver::analyze_final(Lit failed) {
  // The failed assumption plus every earlier assumption reachable from ~failed
  // through the implication graph (levels > 0 only; level-0 facts hold
  // unconditionally). Mirrors MiniSat's analyzeFinal.
  failed_assumptions_.clear();
  failed_assumptions_.push_back(failed);
  const auto fv = static_cast<std::size_t>(failed.var());
  if (trail_limits_.empty() || level_[fv] == 0) return;
  seen_[fv] = kSeenSource;
  for (std::size_t i = trail_.size(); i-- > trail_limits_[0];) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    if (seen_[v] == kSeenUndef) continue;
    seen_[v] = kSeenUndef;
    const CRef cr = reason_[v];
    if (cr == kCRefUndef) {
      // A decision above level 0 — while assumptions are being enqueued,
      // these are exactly the already-accepted assumptions.
      if (trail_[i] != failed) failed_assumptions_.push_back(trail_[i]);
      continue;
    }
    const ClauseView c = arena_.view(cr);
    const std::uint32_t size = c.size();
    for (std::uint32_t k = 1; k < size; ++k) {  // lit(0) is the propagated literal
      const auto qv = static_cast<std::size_t>(c.lit(k).var());
      if (level_[qv] > 0) seen_[qv] = kSeenSource;
    }
  }
  seen_[fv] = kSeenUndef;
}

SolveResult Solver::solve(const std::function<bool()>& interrupt,
                          const std::vector<Lit>& assumptions) {
  failed_assumptions_.clear();
  for (const Lit a : assumptions) {
    if (a.var() < 0 || a.var() >= num_vars()) {
      throw std::out_of_range("Solver::solve: unknown assumption variable");
    }
  }
  if (unsat_) return SolveResult::Unsatisfiable;
  if (!simplify()) return SolveResult::Unsatisfiable;

  for (Var v = 0; v < num_vars(); ++v) {
    if (assign_[static_cast<std::size_t>(v)] == Value::Undef) heap_.insert(v);
  }

  // Glucose restart state (per solve call).
  std::array<std::uint32_t, kRecentLbdWindow> recent_lbd{};
  std::size_t recent_count = 0;
  std::size_t recent_pos = 0;
  std::uint64_t recent_sum = 0;
  std::uint64_t solve_conflicts = 0;
  std::uint64_t solve_lbd_sum = 0;
  std::uint64_t trail_size_sum = 0;

  std::vector<Lit> learnt;

  for (;;) {
    const CRef conflict = propagate();
    if (conflict != kCRefUndef) {
      ++stats_.conflicts;
      ++solve_conflicts;
      if (trail_limits_.empty()) {
        unsat_ = true;
        return SolveResult::Unsatisfiable;
      }
      trail_size_sum += trail_.size();
      // Restart blocking: the assignment keeps growing past its running
      // average — the search looks SAT-like, hold the restart.
      if (recent_count == kRecentLbdWindow &&
          static_cast<double>(trail_.size()) * static_cast<double>(solve_conflicts) >
              kBlockR * static_cast<double>(trail_size_sum)) {
        recent_count = 0;
        recent_pos = 0;
        recent_sum = 0;
      }

      int backjump = 0;
      std::uint32_t lbd = 0;
      analyze(conflict, learnt, backjump, lbd);
      backtrack(backjump);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kCRefUndef);
        simplified_at_trail_ = 0;  // new level-0 fact: next simplify() sweeps
      } else {
        const CRef cr = arena_.alloc(learnt, /*learnt=*/true);
        ClauseView c = arena_.view(cr);
        c.set_lbd(lbd);
        c.set_activity(clause_inc_);
        learnts_.push_back(cr);
        attach_clause(cr);
        enqueue(learnt[0], cr);
      }
      ++stats_.learned;
      stats_.lbd_sum += lbd;
      solve_lbd_sum += lbd;
      heap_.decay();
      if (stats_.conflicts % kVsidsRampInterval == 0 &&
          heap_.decay_factor() < VsidsHeap::kDecay) {
        heap_.set_decay(
            std::min(VsidsHeap::kDecay, heap_.decay_factor() + kVsidsRampStep));
      }
      clause_inc_ /= kClauseDecay;

      if (recent_count < kRecentLbdWindow) {
        ++recent_count;
      } else {
        recent_sum -= recent_lbd[recent_pos];
      }
      recent_lbd[recent_pos] = lbd;
      recent_sum += lbd;
      recent_pos = (recent_pos + 1) % kRecentLbdWindow;

      if (interrupt && interrupt()) {
        backtrack(0);
        return SolveResult::Unknown;
      }

      if (reduce_db_.due(stats_.conflicts)) reduce_learnts();

      // Recent learnt clauses are markedly worse than the long-run
      // average: the search drifted, restart with fresh phases.
      if (recent_count == kRecentLbdWindow &&
          static_cast<double>(recent_sum) * static_cast<double>(solve_conflicts) * kRestartK >
              static_cast<double>(solve_lbd_sum) * static_cast<double>(kRecentLbdWindow)) {
        ++stats_.restarts;
        recent_count = 0;
        recent_pos = 0;
        recent_sum = 0;
        backtrack(0);
      }
    } else {
      // Pending assumptions first: each becomes a pseudo-decision on its own
      // level (an already-true one gets an empty dummy level so level index
      // and assumption index stay aligned across backjumps and restarts).
      Lit next = Lit::from_index(-2);
      bool is_assumption = false;
      while (trail_limits_.size() < assumptions.size()) {
        const Lit a = assumptions[trail_limits_.size()];
        const Value av = value(a);
        if (av == Value::True) {
          trail_limits_.push_back(trail_.size());
          continue;
        }
        if (av == Value::False) {
          analyze_final(a);
          backtrack(0);
          return SolveResult::Unsatisfiable;
        }
        next = a;
        is_assumption = true;
        break;
      }
      if (!is_assumption) {
        next = pick_branch_literal();
        if (next.index() < 0) {
          // Complete assignment: record the model.
          for (Var v = 0; v < num_vars(); ++v) {
            model_[static_cast<std::size_t>(v)] =
                (assign_[static_cast<std::size_t>(v)] == Value::True);
          }
          backtrack(0);
          return SolveResult::Satisfiable;
        }
        ++stats_.decisions;
      }
      trail_limits_.push_back(trail_.size());
      enqueue(next, kCRefUndef);
    }
  }
}

bool Solver::model_value(Var v) const {
  if (v < 0 || v >= num_vars()) throw std::out_of_range("Solver::model_value");
  return model_[static_cast<std::size_t>(v)];
}

}  // namespace qxmap::sat
