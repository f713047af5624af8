#include "checks.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace qxbench {

using qxmap::Circuit;
using qxmap::Gate;

std::string coupling_violation(const Circuit& mapped, const qxmap::arch::CouplingMap& cm) {
  const int m = cm.num_physical();
  if (mapped.num_qubits() > m) {
    return "mapped circuit has " + std::to_string(mapped.num_qubits()) + " qubits, architecture " +
           std::to_string(m);
  }
  const std::set<std::pair<int, int>> edges(cm.edges().begin(), cm.edges().end());
  const auto& gates = mapped.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    if (g.kind == qxmap::OpKind::Barrier) continue;
    const std::string where = "gate " + std::to_string(i) + ": ";
    if (g.is_swap()) return where + "SWAP pseudo-gate left in the mapped circuit";
    if (g.target < 0 || g.target >= m) return where + "qubit out of range";
    if (g.is_cnot()) {
      if (g.control < 0 || g.control >= m) return where + "control out of range";
      if (edges.count({g.control, g.target}) == 0) {
        return where + "CNOT " + std::to_string(g.control) + "->" + std::to_string(g.target) +
               " is not a coupling edge";
      }
    }
  }
  return {};
}

std::string result_problem(const qxmap::exact::MappingResult& result, const Circuit& original,
                           const qxmap::arch::CouplingMap& cm) {
  if (!result.verified) return "not verified: " + result.verify_message;
  if (std::string why = coupling_violation(result.mapped, cm); !why.empty()) return why;
  const auto added = static_cast<long long>(result.mapped.size()) -
                     static_cast<long long>(original.size());
  if (result.cost_f != added) {
    return "cost_f " + std::to_string(result.cost_f) + " but " + std::to_string(added) +
           " gates were added";
  }
  return {};
}

std::string answer_mismatch(const qxmap::exact::MappingResult& served,
                            const qxmap::exact::MappingResult& reference) {
  if (served.cost_f != reference.cost_f) {
    return "cost_f " + std::to_string(served.cost_f) + ", reference " +
           std::to_string(reference.cost_f);
  }
  if (served.mapped.num_qubits() != reference.mapped.num_qubits() ||
      served.mapped.gates() != reference.mapped.gates()) {
    return "mapped circuit differs from the reference";
  }
  return {};
}

std::string served_problem(const qxmap::exact::MappingResult& served,
                           const qxmap::exact::MappingResult& reference, bool expect_optimal) {
  if (std::string why = answer_mismatch(served, reference); !why.empty()) return why;
  if (!served.verified) return "not verified: " + served.verify_message;
  if (expect_optimal && served.status != qxmap::reason::Status::Optimal) {
    return "not proven optimal";
  }
  return {};
}

namespace {

/// Value of `"key": <value>` inside one flat JSON object, unquoted.
std::string field(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return {};
  std::size_t begin = obj.find_first_not_of(' ', at + needle.size());
  if (begin == std::string::npos) return {};
  if (obj[begin] == '"') {
    const std::size_t end = obj.find('"', begin + 1);
    return obj.substr(begin + 1, end - begin - 1);
  }
  const std::size_t end = obj.find_first_of(",}", begin);
  std::string value = obj.substr(begin, end - begin);
  value.erase(std::remove(value.begin(), value.end(), ' '), value.end());
  return value;
}

}  // namespace

std::map<std::string, long long> load_proven_costs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read baseline " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::size_t pos = text.find("\"rows\"");
  if (pos == std::string::npos) throw std::runtime_error("no rows in baseline " + path);
  std::map<std::string, long long> costs;
  while ((pos = text.find('{', pos)) != std::string::npos) {
    const std::size_t close = text.find('}', pos);
    if (close == std::string::npos) break;
    const std::string row = text.substr(pos, close - pos + 1);
    const std::string name = field(row, "circuit");
    const std::string cost = field(row, "cost");
    if (!name.empty() && !cost.empty() && field(row, "proven") == "true") {
      costs[name] = std::stoll(cost);
    }
    pos = close + 1;
  }
  if (costs.empty()) throw std::runtime_error("no proven rows in baseline " + path);
  return costs;
}

}  // namespace qxbench
