#include "reason/engine.hpp"

#include <stdexcept>
#include <utility>

#include "reason/cdcl_engine.hpp"
#if QXMAP_WITH_Z3
#include "reason/z3_engine.hpp"
#endif

namespace qxmap::reason {

void ReasoningEngine::add_at_most_one(const std::vector<int>& lits) {
  const std::size_t n = lits.size();
  if (n <= 6) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        add_clause({-lits[i], -lits[j]});
      }
    }
    return;
  }
  // Sequential ("ladder") encoding: O(n) clauses + aux vars.
  std::vector<int> reg(n - 1);
  for (auto& r : reg) r = new_bool() + 1;
  add_clause({-lits[0], reg[0]});
  for (std::size_t i = 1; i + 1 < n; ++i) {
    add_clause({-lits[i], reg[i]});
    add_clause({-reg[i - 1], reg[i]});
    add_clause({-lits[i], -reg[i - 1]});
  }
  add_clause({-lits[n - 1], -reg[n - 2]});
}

void ReasoningEngine::set_upper_bound(long long /*bound*/) {}

Outcome ReasoningEngine::find_model(std::chrono::milliseconds budget) { return minimize(budget); }

bool ReasoningEngine::mark_prefix() { return false; }

bool ReasoningEngine::reset_to_prefix() { return false; }

void ReasoningEngine::set_bound_source(BoundSource source) { bound_source_ = std::move(source); }

long long ReasoningEngine::poll_bound_source() {
  if (!bound_source_) return kNoBound;
  ++stats_.bound_polls;
  return bound_source_();
}

void ReasoningEngine::add_at_least_one(const std::vector<int>& lits) { add_clause(lits); }

void ReasoningEngine::add_exactly_one(const std::vector<int>& lits) {
  add_at_least_one(lits);
  add_at_most_one(lits);
}

int ReasoningEngine::make_and(int a, int b) {
  const int t = new_bool();
  const int tl = t + 1;
  add_clause({-tl, a});
  add_clause({-tl, b});
  add_clause({-a, -b, tl});
  return t;
}

int ReasoningEngine::make_or(const std::vector<int>& lits) {
  const int t = new_bool();
  const int tl = t + 1;
  if (lits.empty()) {
    add_clause({-tl});
    return t;
  }
  std::vector<int> big{-tl};
  for (const int l : lits) {
    add_clause({-l, tl});
    big.push_back(l);
  }
  add_clause(big);
  return t;
}

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::Z3: return "z3";
    case EngineKind::Cdcl: return "cdcl";
    case EngineKind::Dp: return "dp";
  }
  throw std::invalid_argument("to_string: bad EngineKind");
}

EngineKind engine_kind(std::string_view name) {
  for (const EngineKind kind : {EngineKind::Dp, EngineKind::Cdcl, EngineKind::Z3}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown engine '" + std::string(name) + "' (expected dp|cdcl|z3)");
}

EngineKind running_engine(EngineKind kind) {
  return kind == EngineKind::Z3 && !z3_available() ? EngineKind::Cdcl : kind;
}

std::string to_string(Status status) {
  switch (status) {
    case Status::Optimal: return "optimal";
    case Status::Feasible: return "feasible";
    case Status::Unsat: return "unsat";
    case Status::Unknown: return "unknown";
  }
  throw std::invalid_argument("to_string: bad Status");
}

bool z3_available() {
#if QXMAP_WITH_Z3
  return true;
#else
  return false;
#endif
}

std::unique_ptr<ReasoningEngine> make_engine(EngineKind kind) {
  switch (kind) {
    case EngineKind::Z3:
#if QXMAP_WITH_Z3
      return std::make_unique<Z3Engine>();
#else
      // Z3 support compiled out: degrade to the built-in CDCL backend so
      // callers that request the paper's engine keep working.
      return std::make_unique<CdclEngine>();
#endif
    case EngineKind::Cdcl: return std::make_unique<CdclEngine>();
    case EngineKind::Dp:
      throw std::invalid_argument("make_engine: EngineKind::Dp is not a ReasoningEngine");
  }
  throw std::invalid_argument("make_engine: bad EngineKind");
}

}  // namespace qxmap::reason
