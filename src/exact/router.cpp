#include "exact/router.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "exact/swap_synthesis.hpp"
#include "sim/linear_reversible.hpp"

namespace qxmap::exact {

bool needs_swap_expansion(const Circuit& circuit, const arch::CouplingMap& cm, const char* who,
                          bool require_connected) {
  if (circuit.num_qubits() > cm.num_physical()) {
    throw std::invalid_argument(std::string(who) +
                                ": circuit needs more qubits than the architecture has");
  }
  if (require_connected && !cm.is_connected()) {
    throw std::invalid_argument(std::string(who) + ": coupling graph must be connected");
  }
  return circuit.counts().swap > 0;
}

Router::Router(const Circuit& logical, const arch::CouplingMap& cm, std::vector<int> layout,
               bool emit)
    : logical_(&logical),
      cm_(&cm),
      initial_(layout),
      layout_(std::move(layout)),
      mapped_(cm.num_physical(), logical.name() + "/mapped"),
      skeleton_(cm.num_physical(), logical.name() + "/routed-skeleton"),
      emit_(emit) {}

Router::Router(const Circuit& logical, const arch::CouplingMap& cm)
    : Router(logical, cm, [&] {
        std::vector<int> trivial(static_cast<std::size_t>(logical.num_qubits()));
        std::iota(trivial.begin(), trivial.end(), 0);
        return trivial;
      }()) {}

void Router::swap(int a, int b) {
  if (emit_) {
    append_swap_realisation(mapped_, *cm_, a, b);
    skeleton_.swap(a, b);
  }
  ++swaps_;
  layout_ = swapped(std::move(layout_), a, b);
}

void Router::emit(const Gate& g) {
  if (g.kind == OpKind::Barrier) {
    if (emit_) mapped_.append(g);
    return;
  }
  if (g.is_nonunitary() || g.is_single_qubit()) {
    // remapped() keeps params and any classical guard.
    if (emit_) mapped_.append(g.remapped(layout_[static_cast<std::size_t>(g.target)]));
    return;
  }
  const int pc = layout_[static_cast<std::size_t>(g.control)];
  const int pt = layout_[static_cast<std::size_t>(g.target)];
  if (!cm_->allows(pc, pt)) ++reversed_;
  if (!emit_) return;
  skeleton_.cnot(pc, pt);
  append_cnot_realisation(mapped_, *cm_, pc, pt, g.condition);
}

void Router::walk(int qc, int qt, const arch::DistanceMatrix& dist) {
  for (;;) {
    const int pc = layout_[static_cast<std::size_t>(qc)];
    const int pt = layout_[static_cast<std::size_t>(qt)];
    if (cm_->coupled(pc, pt)) return;
    int best_nb = -1;
    int best_d = dist.hops(pc, pt);
    for (const int nb : cm_->neighbours(pc)) {
      if (dist.hops(nb, pt) < best_d) {
        best_d = dist.hops(nb, pt);
        best_nb = nb;
      }
    }
    if (best_nb < 0) throw std::logic_error("Router::walk: no neighbour is closer");
    swap(pc, best_nb);
  }
}

MappingResult Router::finish(MappingResult res, const CostModel& costs, bool verify,
                             Clock::time_point start) && {
  if (!emit_) throw std::logic_error("Router::finish: the route emitted no circuits");
  res.mapped = std::move(mapped_);
  res.routed_skeleton = std::move(skeleton_);
  res.initial_layout = std::move(initial_);
  res.final_layout = std::move(layout_);
  res.swaps_inserted = swaps_;
  res.cnots_reversed = reversed_;
  res.cost_f =
      static_cast<long long>(res.mapped.size()) - static_cast<long long>(logical_->size());
  res.objective = to_string(costs.objective);
  res.objective_cost = costs.result_cost(swaps_, reversed_);
  if (verify) {
    res.verified = sim::implements_skeleton(logical_->cnot_skeleton(), res.routed_skeleton,
                                            res.initial_layout, res.final_layout);
    res.verify_message = std::string("gf2: ") + (res.verified ? "ok" : "FAILED");
  }
  res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return res;
}

}  // namespace qxmap::exact
