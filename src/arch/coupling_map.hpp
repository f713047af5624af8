/// \file coupling_map.hpp
/// Directed coupling maps of IBM QX architectures (Def. 2).
///
/// An entry (pi, pj) means a CNOT with control pi and target pj is natively
/// executable. A CNOT in the opposite direction costs 4 extra H gates; a
/// CNOT between uncoupled qubits requires SWAPs (7 gates each).

#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qxmap::arch {

/// Optional per-device calibration data attached to a coupling map (set by
/// the JSON loader or `CouplingMap::set_error_rates`). All rates are error
/// probabilities in [0, 1). Empty containers mean "no data" — consumers fall
/// back to their own defaults (see exact::CostModel, sim::NoiseModel).
struct ErrorRates {
  /// Per directed edge (control, target) → CNOT error rate. Keys must be
  /// edges of the owning map.
  std::map<std::pair<int, int>, double> cnot;
  /// Per physical qubit; empty or exactly num_physical() entries.
  std::vector<double> single_qubit;
  /// Per physical qubit; empty or exactly num_physical() entries.
  std::vector<double> readout;

  [[nodiscard]] bool empty() const noexcept {
    return cnot.empty() && single_qubit.empty() && readout.empty();
  }
};

/// Immutable directed graph over `num_physical()` qubits.
class CouplingMap {
 public:
  /// \param num_physical number of physical qubits m
  /// \param edges directed (control, target) pairs; duplicates are removed
  /// \param name architecture name for reports
  /// \throws std::invalid_argument on out-of-range endpoints or self-loops.
  CouplingMap(int num_physical, std::vector<std::pair<int, int>> edges, std::string name = {});

  [[nodiscard]] int num_physical() const noexcept { return m_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Directed query: CNOT(control → target) natively executable? A binary
  /// search of `control`'s out-neighbours; false (no throw) for equal or
  /// out-of-range arguments.
  [[nodiscard]] bool allows(int control, int target) const;

  /// Undirected query: any CNOT orientation executable between a and b? A
  /// binary search of `a`'s neighbours; false (no throw) for equal or
  /// out-of-range arguments.
  [[nodiscard]] bool coupled(int a, int b) const;

  /// All directed edges, sorted.
  [[nodiscard]] const std::vector<std::pair<int, int>>& edges() const noexcept { return edges_; }

  /// Undirected edge set with a < b, deduplicated, sorted.
  [[nodiscard]] const std::vector<std::pair<int, int>>& undirected_edges() const noexcept {
    return undirected_;
  }

  /// Canonical structural fingerprint: qubit count plus the sorted directed
  /// edge list ("m5:1>0;2>0;…"). Two maps share a fingerprint iff they have
  /// the same qubit count and the same directed edges — the name is
  /// deliberately excluded, and a directed edge never aliases its bidirected
  /// counterpart. Cache key of arch::SwapCostCache.
  [[nodiscard]] const std::string& fingerprint() const noexcept { return fingerprint_; }

  /// Undirected neighbours of qubit `p`.
  [[nodiscard]] const std::vector<int>& neighbours(int p) const;

  /// True iff the undirected graph on all m qubits is connected.
  [[nodiscard]] bool is_connected() const;

  /// True iff the undirected subgraph induced by `subset` is connected.
  /// An empty subset counts as connected.
  [[nodiscard]] bool subset_connected(const std::vector<int>& subset) const;

  /// True iff the undirected graph contains a 3-clique (needed for the
  /// paper's *qubit triangle* strategy, Sec. 4.2).
  [[nodiscard]] bool has_triangle() const;

  /// Coupling map induced by `subset` (sorted, distinct), with qubits
  /// renumbered 0 … subset.size()-1 in subset order. Directions preserved.
  /// Error rates are not carried over.
  [[nodiscard]] CouplingMap induced(const std::vector<int>& subset) const;

  /// Parses a coupling map from the JSON schema documented in
  /// docs/architectures.md (qubit count, directed/undirected edge list,
  /// optional per-edge / per-qubit error rates). `fallback_name` is used when
  /// the document carries no "name" field.
  /// \throws CouplingJsonError (arch/coupling_json.hpp) with line/column and
  ///         a caret excerpt on malformed input or schema violations.
  [[nodiscard]] static CouplingMap from_json(std::string_view text,
                                             std::string fallback_name = {});

  /// Reads `path` and forwards to from_json. Diagnostics carry the file name.
  [[nodiscard]] static CouplingMap from_json_file(const std::string& path);

  /// Attaches calibration data. Validates that every cnot key is a directed
  /// edge of this map, that per-qubit vectors are empty or length
  /// num_physical(), and that every rate lies in [0, 1).
  /// \throws std::invalid_argument on violation.
  void set_error_rates(ErrorRates rates);

  [[nodiscard]] const ErrorRates& error_rates() const noexcept { return rates_; }
  [[nodiscard]] bool has_error_rates() const noexcept { return !rates_.empty(); }

  /// Mean CNOT error over all directed edges, using `fallback` for edges
  /// without calibration data. Returns `fallback` when no edge data exists.
  [[nodiscard]] double mean_cnot_error(double fallback) const;

  /// Mean single-qubit error over all qubits; `fallback` when no data.
  [[nodiscard]] double mean_single_qubit_error(double fallback) const;

  /// Canonical rendering of the attached error rates, or "" when none. Keyed
  /// *separately* from fingerprint(): routing tables depend only on the graph,
  /// so SwapCostCache keeps sharing entries across differently-calibrated
  /// devices, while noise-aware result caches append this string.
  [[nodiscard]] const std::string& noise_fingerprint() const noexcept {
    return noise_fingerprint_;
  }

 private:
  int m_;
  std::string name_;
  std::string fingerprint_;
  std::vector<std::pair<int, int>> edges_;
  std::vector<std::pair<int, int>> undirected_;
  std::vector<std::vector<int>> neighbours_;
  std::vector<std::vector<int>> out_neighbours_;  // targets per control, sorted
  ErrorRates rates_;
  std::string noise_fingerprint_;
};

}  // namespace qxmap::arch
