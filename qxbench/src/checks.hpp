/// \file checks.hpp
/// Output checks the benchmark applies to every mapping result. They are
/// written against the public IR and coupling-map types only, so a bug in
/// the mapper's own legality or verification code cannot hide itself.

#pragma once

#include <map>
#include <string>

#include "api/qxmap.hpp"

namespace qxbench {

/// Empty when every gate of `mapped` is legal on `cm`: operands are physical
/// qubits of `cm`, no SWAP pseudo-gate is left, and every CNOT runs along a
/// directed coupling edge. Otherwise a description of the first violation.
[[nodiscard]] std::string coupling_violation(const qxmap::Circuit& mapped,
                                             const qxmap::arch::CouplingMap& cm);

/// Empty when `result` is verified, coupling-legal on `cm`, and its cost_f
/// equals the number of gates it added to `original`. Otherwise the reason.
[[nodiscard]] std::string result_problem(const qxmap::exact::MappingResult& result,
                                         const qxmap::Circuit& original,
                                         const qxmap::arch::CouplingMap& cm);

/// Empty when `served` matches `reference` bit for bit in cost_f and in the
/// gates of the mapped circuit. Otherwise the first difference.
[[nodiscard]] std::string answer_mismatch(const qxmap::exact::MappingResult& served,
                                          const qxmap::exact::MappingResult& reference);

/// Empty when a result served by the mapping service is verified, matches
/// `reference` bit for bit, and, for `expect_optimal`, is proven optimal.
[[nodiscard]] std::string served_problem(const qxmap::exact::MappingResult& served,
                                         const qxmap::exact::MappingResult& reference,
                                         bool expect_optimal);

/// Proven mapped costs (original + added gates) by circuit name, read from a
/// Table-1 baseline file in the layout of the committed BENCH_table1.json.
/// Rows whose cost was not proven optimal are left out.
/// \throws std::runtime_error when the file cannot be read or has no rows.
[[nodiscard]] std::map<std::string, long long> load_proven_costs(const std::string& path);

}  // namespace qxbench
