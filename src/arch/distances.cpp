#include "arch/distances.hpp"

#include <algorithm>

namespace qxmap::arch {

namespace {
constexpr int kUnreachable = 1000000;
}

DistanceMatrix::DistanceMatrix(const CouplingMap& cm) : m_(cm.num_physical()) {
  const auto idx = [this](int a, int b) {
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(m_) + static_cast<std::size_t>(b);
  };
  hops_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_), kUnreachable);
  for (int i = 0; i < m_; ++i) hops_[idx(i, i)] = 0;
  for (const auto& [a, b] : cm.undirected_edges()) {
    hops_[idx(a, b)] = 1;
    hops_[idx(b, a)] = 1;
  }
  for (int k = 0; k < m_; ++k) {
    for (int i = 0; i < m_; ++i) {
      for (int j = 0; j < m_; ++j) {
        hops_[idx(i, j)] = std::min(hops_[idx(i, j)], hops_[idx(i, k)] + hops_[idx(k, j)]);
      }
    }
  }
}

}  // namespace qxmap::arch
