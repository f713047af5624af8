#include "ir/layers.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace qxmap {

std::vector<std::vector<std::size_t>> asap_layers(const Circuit& c) {
  std::vector<std::vector<std::size_t>> layers;
  // For each qubit, the index of the last layer that touches it (-1: none).
  std::vector<int> last_layer(static_cast<std::size_t>(c.num_qubits()), -1);
  int barrier_floor = -1;  // gates may not be scheduled at or before this layer

  for (std::size_t gi = 0; gi < c.size(); ++gi) {
    const Gate& g = c.gate(gi);
    if (g.kind == OpKind::Barrier) {
      // Emitted after every gate placed so far, i.e. at the end of the last
      // layer; a leading barrier opens a layer of its own.
      if (layers.empty()) layers.emplace_back();
      layers.back().push_back(gi);
      barrier_floor = static_cast<int>(layers.size()) - 1;
      continue;
    }
    int earliest = barrier_floor;
    for (const int q : g.qubits()) {
      earliest = std::max(earliest, last_layer[static_cast<std::size_t>(q)]);
    }
    const auto layer = static_cast<std::size_t>(earliest + 1);
    if (layer == layers.size()) layers.emplace_back();
    layers[layer].push_back(gi);
    for (const int q : g.qubits()) {
      last_layer[static_cast<std::size_t>(q)] = static_cast<int>(layer);
    }
  }
  return layers;
}

namespace {

/// Shared clustering walk: starts a new cluster whenever `fits` rejects
/// adding the gate's qubits to the running cluster set.
template <typename FitsFn>
std::vector<std::size_t> cluster_starts(const std::vector<Gate>& gates, FitsFn fits) {
  std::vector<std::size_t> starts;
  std::set<int> cluster_qubits;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const auto qs = gates[i].qubits();
    if (i > 0 && !fits(cluster_qubits, qs)) {
      starts.push_back(i);
      cluster_qubits.clear();
    }
    cluster_qubits.insert(qs.begin(), qs.end());
  }
  return starts;
}

}  // namespace

std::vector<std::size_t> disjoint_cluster_starts(const std::vector<Gate>& gates) {
  return cluster_starts(gates, [](const std::set<int>& cluster, const std::vector<int>& qs) {
    return std::none_of(qs.begin(), qs.end(),
                        [&](int q) { return cluster.contains(q); });
  });
}

std::vector<std::size_t> bounded_qubit_cluster_starts(const std::vector<Gate>& gates,
                                                      int max_qubits) {
  if (max_qubits < 2) throw std::invalid_argument("bounded_qubit_cluster_starts: max_qubits < 2");
  return cluster_starts(gates, [max_qubits](const std::set<int>& cluster, const std::vector<int>& qs) {
    std::set<int> merged = cluster;
    merged.insert(qs.begin(), qs.end());
    return static_cast<int>(merged.size()) <= max_qubits;
  });
}

}  // namespace qxmap
