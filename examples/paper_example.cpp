/// The paper's worked example, end to end: the Fig. 1a circuit is mapped
/// to IBM QX4 (coupling map of Fig. 2) and the minimal solution — cost
/// F = 4, matching Fig. 5 — is printed together with the machine-checked
/// equivalence verdict.

#include <iostream>

#include "api/qxmap.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "sim/equivalence.hpp"

int main() {
  using namespace qxmap;

  const Circuit original = bench::paper_example_circuit();
  const auto qx4 = arch::ibm_qx4();

  std::cout << "Fig. 1a circuit:\n" << original.to_string() << '\n';
  std::cout << "QX4 coupling map (Fig. 2, 0-based): ";
  for (const auto& [c, t] : qx4.edges()) std::cout << "(p" << c << "->p" << t << ") ";
  std::cout << "\n\n";

  for (const auto engine :
       {reason::EngineKind::Dp, reason::EngineKind::Z3, reason::EngineKind::Cdcl}) {
    MapOptions options;
    options.exact.engine = engine;
    options.exact.budget = std::chrono::milliseconds(60000);
    const auto result = map(original, qx4, options);

    std::cout << "--- engine: " << result.engine_name << " ---\n";
    std::cout << "status: "
              << (result.status == reason::Status::Optimal ? "optimal" : "not proven optimal")
              << ", F = " << result.cost_f << " (paper's Fig. 5 minimum: 4)\n";
    std::cout << "SWAPs inserted: " << result.swaps_inserted
              << ", direction-reversed CNOTs: " << result.cnots_reversed << '\n';
    std::cout << "mapped circuit (" << result.mapped.size() << " gates):\n"
              << result.mapped.to_string();

    const auto equivalence = sim::check_mapped_circuit(original, result.mapped,
                                                       result.initial_layout,
                                                       result.final_layout);
    std::cout << "statevector equivalence: " << (equivalence.equivalent ? "PROVEN" : "FAILED")
              << " (" << equivalence.message << ")\n\n";
  }
  return 0;
}
