#include "arch/coupling_map.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/strings.hpp"

namespace qxmap::arch {

CouplingMap::CouplingMap(int num_physical, std::vector<std::pair<int, int>> edges,
                         std::string name)
    : m_(num_physical), name_(std::move(name)) {
  if (num_physical <= 0) throw std::invalid_argument("CouplingMap: need at least one qubit");
  std::set<std::pair<int, int>> dedup;
  std::set<std::pair<int, int>> undirected;
  for (const auto& [c, t] : edges) {
    if (c < 0 || t < 0 || c >= m_ || t >= m_) {
      throw std::invalid_argument("CouplingMap: edge endpoint out of range");
    }
    if (c == t) throw std::invalid_argument("CouplingMap: self-loop");
    dedup.emplace(c, t);
    undirected.emplace(std::min(c, t), std::max(c, t));
  }
  edges_.assign(dedup.begin(), dedup.end());
  undirected_.assign(undirected.begin(), undirected.end());
  neighbours_.assign(static_cast<std::size_t>(m_), {});
  for (const auto& [a, b] : undirected_) {
    neighbours_[static_cast<std::size_t>(a)].push_back(b);
    neighbours_[static_cast<std::size_t>(b)].push_back(a);
  }
  for (auto& nb : neighbours_) std::sort(nb.begin(), nb.end());
  // edges_ is sorted, so every target list comes out sorted.
  out_neighbours_.assign(static_cast<std::size_t>(m_), {});
  for (const auto& [c, t] : edges_) out_neighbours_[static_cast<std::size_t>(c)].push_back(t);

  // Built with append() rather than operator+ chains: GCC 12's -Wrestrict
  // false-positives on the latter (same workaround as dimacs/z3_engine).
  fingerprint_ += 'm';
  fingerprint_ += std::to_string(m_);
  fingerprint_ += ':';
  for (const auto& [c, t] : edges_) {
    if (fingerprint_.back() != ':') fingerprint_ += ';';
    fingerprint_ += std::to_string(c);
    fingerprint_ += '>';
    fingerprint_ += std::to_string(t);
  }
}

namespace {

/// True iff `target` is in `lists[from]`; false for an out-of-range `from`.
bool listed(const std::vector<std::vector<int>>& lists, int from, int target) {
  if (from < 0 || static_cast<std::size_t>(from) >= lists.size()) return false;
  const std::vector<int>& list = lists[static_cast<std::size_t>(from)];
  return std::binary_search(list.begin(), list.end(), target);
}

}  // namespace

bool CouplingMap::allows(int control, int target) const {
  return listed(out_neighbours_, control, target);
}

bool CouplingMap::coupled(int a, int b) const { return listed(neighbours_, a, b); }

const std::vector<int>& CouplingMap::neighbours(int p) const {
  if (p < 0 || p >= m_) throw std::out_of_range("CouplingMap::neighbours");
  return neighbours_[static_cast<std::size_t>(p)];
}

bool CouplingMap::is_connected() const {
  std::vector<int> all(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) all[static_cast<std::size_t>(i)] = i;
  return subset_connected(all);
}

bool CouplingMap::subset_connected(const std::vector<int>& subset) const {
  if (subset.empty()) return true;
  const std::set<int> members(subset.begin(), subset.end());
  std::set<int> seen{*subset.begin()};
  std::vector<int> stack{*subset.begin()};
  while (!stack.empty()) {
    const int cur = stack.back();
    stack.pop_back();
    for (const int nb : neighbours(cur)) {
      if (members.contains(nb) && !seen.contains(nb)) {
        seen.insert(nb);
        stack.push_back(nb);
      }
    }
  }
  return seen.size() == members.size();
}

bool CouplingMap::has_triangle() const {
  for (const auto& [a, b] : undirected_) {
    for (const int c : neighbours(a)) {
      if (c != b && coupled(c, b)) return true;
    }
  }
  return false;
}

namespace {

bool valid_rate(double r) { return r >= 0.0 && r < 1.0; }

void check_per_qubit(const std::vector<double>& v, int m, const char* what) {
  if (!v.empty() && v.size() != static_cast<std::size_t>(m)) {
    throw std::invalid_argument(std::string("CouplingMap::set_error_rates: ") + what +
                                " must be empty or have one entry per physical qubit");
  }
  for (const double r : v) {
    if (!valid_rate(r)) {
      throw std::invalid_argument(std::string("CouplingMap::set_error_rates: ") + what +
                                  " rate outside [0, 1)");
    }
  }
}

}  // namespace

void CouplingMap::set_error_rates(ErrorRates rates) {
  for (const auto& [edge, rate] : rates.cnot) {
    if (!allows(edge.first, edge.second)) {
      throw std::invalid_argument("CouplingMap::set_error_rates: cnot rate for (" +
                                  std::to_string(edge.first) + "," +
                                  std::to_string(edge.second) + ") which is not an edge");
    }
    if (!valid_rate(rate)) {
      throw std::invalid_argument("CouplingMap::set_error_rates: cnot rate outside [0, 1)");
    }
  }
  check_per_qubit(rates.single_qubit, m_, "single_qubit");
  check_per_qubit(rates.readout, m_, "readout");
  rates_ = std::move(rates);

  noise_fingerprint_.clear();
  if (rates_.empty()) return;
  // Same append()-only construction as fingerprint() (GCC 12 -Wrestrict).
  noise_fingerprint_ += "cx:";
  for (const auto& [edge, rate] : rates_.cnot) {
    if (noise_fingerprint_.back() != ':') noise_fingerprint_ += ';';
    noise_fingerprint_ += std::to_string(edge.first);
    noise_fingerprint_ += '>';
    noise_fingerprint_ += std::to_string(edge.second);
    noise_fingerprint_ += '=';
    noise_fingerprint_ += format_fixed(rate, 9);
  }
  const auto append_vec = [this](const std::vector<double>& vec, const char* tag) {
    if (vec.empty()) return;
    noise_fingerprint_ += tag;
    for (std::size_t i = 0; i < vec.size(); ++i) {
      if (i != 0) noise_fingerprint_ += ';';
      noise_fingerprint_ += format_fixed(vec[i], 9);
    }
  };
  append_vec(rates_.single_qubit, "|1q:");
  append_vec(rates_.readout, "|ro:");
}

double CouplingMap::mean_cnot_error(double fallback) const {
  if (rates_.cnot.empty() || edges_.empty()) return fallback;
  double sum = 0.0;
  for (const auto& [c, t] : edges_) {
    const auto it = rates_.cnot.find({c, t});
    sum += it != rates_.cnot.end() ? it->second : fallback;
  }
  return sum / static_cast<double>(edges_.size());
}

double CouplingMap::mean_single_qubit_error(double fallback) const {
  if (rates_.single_qubit.empty()) return fallback;
  double sum = 0.0;
  for (const double r : rates_.single_qubit) sum += r;
  return sum / static_cast<double>(rates_.single_qubit.size());
}

CouplingMap CouplingMap::induced(const std::vector<int>& subset) const {
  std::vector<int> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("CouplingMap::induced: duplicate subset entries");
  }
  std::vector<int> position(static_cast<std::size_t>(m_), -1);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const int p = sorted[i];
    if (p < 0 || p >= m_) throw std::out_of_range("CouplingMap::induced: qubit out of range");
    position[static_cast<std::size_t>(p)] = static_cast<int>(i);
  }
  std::vector<std::pair<int, int>> sub_edges;
  for (const auto& [c, t] : edges_) {
    const int ci = position[static_cast<std::size_t>(c)];
    const int ti = position[static_cast<std::size_t>(t)];
    if (ci >= 0 && ti >= 0) sub_edges.emplace_back(ci, ti);
  }
  return CouplingMap(static_cast<int>(sorted.size()), std::move(sub_edges),
                     name_ + "/subset");
}

}  // namespace qxmap::arch
