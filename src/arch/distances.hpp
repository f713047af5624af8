/// \file distances.hpp
/// All-pairs hop distances over a coupling map.
///
/// The heuristic mappers steer by these: `hops` is the undirected shortest
/// path length between two physical qubits.

#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "arch/coupling_map.hpp"

namespace qxmap::arch {

/// Precomputed hop distances for one coupling map.
class DistanceMatrix {
 public:
  /// Runs Floyd–Warshall on the undirected graph. O(m^3).
  explicit DistanceMatrix(const CouplingMap& cm);

  /// Undirected hop count between physical qubits (0 if a == b). Returns a
  /// large sentinel (>= 1000) for disconnected pairs. Inline: it sits in
  /// every heuristic's candidate-scoring loop.
  [[nodiscard]] int hops(int a, int b) const {
    if (a < 0 || b < 0 || a >= m_ || b >= m_) throw std::out_of_range("DistanceMatrix::hops");
    return hops_[static_cast<std::size_t>(a) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(b)];
  }

  [[nodiscard]] int size() const noexcept { return m_; }

 private:
  int m_;
  std::vector<int> hops_;  // m*m
};

}  // namespace qxmap::arch
