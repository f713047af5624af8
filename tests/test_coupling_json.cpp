/// Acceptance and rejection suite for the JSON coupling-map front-end
/// (arch/coupling_json.hpp). Every rejection case asserts that the
/// diagnostic names the offending JSON path/field and carries a usable
/// 1-based line/column, in the same caret style as the QASM front-end.

#include "arch/coupling_json.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "arch/architectures.hpp"
#include "arch/coupling_map.hpp"

namespace qxmap {
namespace {

using arch::CouplingJsonError;
using arch::CouplingMap;
using arch::load_coupling_json;
using arch::load_coupling_json_file;

/// Runs the loader expecting a CouplingJsonError whose message contains
/// `needle`; returns the error for further line/column assertions.
CouplingJsonError expect_rejection(const std::string& text, const std::string& needle) {
  try {
    (void)load_coupling_json(text);
  } catch (const CouplingJsonError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic \"" << e.what() << "\" lacks \"" << needle << '"';
    return e;
  }
  ADD_FAILURE() << "loader accepted: " << text;
  return CouplingJsonError("unreached", 0, 0);
}

// --- acceptance ----------------------------------------------------------

TEST(CouplingJson, MinimalUndirectedMap) {
  const CouplingMap cm = load_coupling_json(
      R"({"name": "pair", "qubits": 2, "edges": [[0, 1]]})");
  EXPECT_EQ(cm.name(), "pair");
  EXPECT_EQ(cm.num_physical(), 2);
  // directed defaults to false: the edge is installed in both directions.
  EXPECT_TRUE(cm.allows(0, 1));
  EXPECT_TRUE(cm.allows(1, 0));
  EXPECT_FALSE(cm.has_error_rates());
  EXPECT_TRUE(cm.noise_fingerprint().empty());
}

TEST(CouplingJson, FallbackNameWhenDocumentHasNone) {
  const CouplingMap anon = load_coupling_json(R"({"qubits": 2, "edges": [[0, 1]]})");
  EXPECT_EQ(anon.name(), "json");
  const CouplingMap named =
      load_coupling_json(R"({"qubits": 2, "edges": [[0, 1]]})", "my-device");
  EXPECT_EQ(named.name(), "my-device");
  // An explicit "name" beats the fallback.
  const CouplingMap doc = load_coupling_json(
      R"({"name": "doc-name", "qubits": 2, "edges": [[0, 1]]})", "fallback");
  EXPECT_EQ(doc.name(), "doc-name");
}

TEST(CouplingJson, DirectedEdgesTakenVerbatim) {
  const CouplingMap cm = load_coupling_json(
      R"({"qubits": 3, "directed": true, "edges": [[1, 0], [2, 0], [2, 1]]})");
  // Same shape as QX4's left triangle: strictly one-directional.
  EXPECT_TRUE(cm.allows(1, 0));
  EXPECT_FALSE(cm.allows(0, 1));
  EXPECT_EQ(cm.edges().size(), 3u);
}

TEST(CouplingJson, ObjectFormEdgesCarryErrorRates) {
  const CouplingMap cm = load_coupling_json(R"({
    "qubits": 3,
    "edges": [
      {"control": 0, "target": 1, "error": 0.02},
      [1, 2]
    ]
  })");
  ASSERT_TRUE(cm.has_error_rates());
  const auto& rates = cm.error_rates();
  // Undirected map: the per-edge error applies to both directions.
  ASSERT_EQ(rates.cnot.count({0, 1}), 1u);
  ASSERT_EQ(rates.cnot.count({1, 0}), 1u);
  EXPECT_DOUBLE_EQ(rates.cnot.at({0, 1}), 0.02);
  EXPECT_DOUBLE_EQ(rates.cnot.at({1, 0}), 0.02);
  // The bare-pair edge has no calibration entry; the mean charges it at the
  // caller's fallback rate: (0.02 + 0.02 + 0.5 + 0.5) / 4 directed edges.
  EXPECT_EQ(rates.cnot.count({1, 2}), 0u);
  EXPECT_DOUBLE_EQ(cm.mean_cnot_error(0.5), 0.26);
}

TEST(CouplingJson, PerQubitArraysAndNoiseFingerprint) {
  const CouplingMap cm = load_coupling_json(R"({
    "qubits": 2,
    "edges": [{"control": 0, "target": 1, "error": 0.01}],
    "single_qubit_errors": [0.001, 0.002],
    "readout_errors": [0.03, 0.05]
  })");
  ASSERT_TRUE(cm.has_error_rates());
  EXPECT_DOUBLE_EQ(cm.mean_single_qubit_error(0.5), 0.0015);
  const std::string nfp = cm.noise_fingerprint();
  EXPECT_NE(nfp.find("cx:"), std::string::npos);
  EXPECT_NE(nfp.find("|1q:"), std::string::npos);
  EXPECT_NE(nfp.find("|ro:"), std::string::npos);
  // Same document → same noise fingerprint; a different rate changes it.
  const CouplingMap other = load_coupling_json(R"({
    "qubits": 2,
    "edges": [{"control": 0, "target": 1, "error": 0.02}],
    "single_qubit_errors": [0.001, 0.002],
    "readout_errors": [0.03, 0.05]
  })");
  EXPECT_EQ(cm.fingerprint(), other.fingerprint());
  EXPECT_NE(nfp, other.noise_fingerprint());
}

TEST(CouplingJson, FromJsonFileUsesStemAsFallbackName) {
  const std::string path = testing::TempDir() + "ring3_device.json";
  {
    std::ofstream out(path);
    out << R"({"qubits": 3, "edges": [[0, 1], [1, 2], [2, 0]]})";
  }
  const CouplingMap cm = load_coupling_json_file(path);
  EXPECT_EQ(cm.name(), "ring3_device");
  EXPECT_EQ(cm.num_physical(), 3);
  EXPECT_TRUE(cm.is_connected());
  // CouplingMap::from_json_file is a plain forwarder.
  EXPECT_EQ(CouplingMap::from_json_file(path).fingerprint(), cm.fingerprint());
}

TEST(CouplingJson, FileDiagnosticsCarryThePath) {
  const std::string path = testing::TempDir() + "broken_map.json";
  {
    std::ofstream out(path);
    out << "{\"qubits\": 2,\n \"edges\": [[0, 5]]}";
  }
  try {
    (void)load_coupling_json_file(path);
    FAIL() << "loader accepted an out-of-range endpoint";
  } catch (const CouplingJsonError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW((void)load_coupling_json_file(testing::TempDir() + "no_such_map.json"),
               std::runtime_error);
}

// --- rejection: malformed JSON -------------------------------------------

TEST(CouplingJsonReject, MalformedJsonReportsLineColumnAndCaret) {
  const auto e = expect_rejection("{\"qubits\": 2,\n  \"edges\": [[0, 1]\n}",
                                  "',' or ']' in array");
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.column(), 1);
  // The excerpt renders the offending line with a caret under the column.
  EXPECT_NE(std::string(e.what()).find("\n  }\n  ^"), std::string::npos) << e.what();
}

TEST(CouplingJsonReject, LexicalErrors) {
  expect_rejection("", "empty document");
  expect_rejection("[1, 2]", "top-level value must be an object, got an array");
  expect_rejection("42", "top-level value must be an object, got a number");
  expect_rejection(R"({"qubits": 2, "edges": [[0, 1]]} trailing)",
                   "trailing content after the top-level value");
  expect_rejection(R"({"qubits": 1e+})", "malformed number");
  expect_rejection(R"({"qubits": -})", "malformed number '-'");
  expect_rejection("{\"name\": \"unterminated", "unterminated string");
  expect_rejection(R"({"name": "bad\q"})", "unsupported escape");
  expect_rejection(R"({"qubits": 2, "qubits": 3})", "duplicate key \"qubits\"");
}

// --- rejection: schema violations ----------------------------------------

TEST(CouplingJsonReject, MissingAndMistypedRequiredFields) {
  expect_rejection(R"({"edges": [[0, 1]]})", "missing required field \"qubits\"");
  expect_rejection(R"({"qubits": 2})", "missing required field \"edges\"");
  expect_rejection(R"({"qubits": 2.5, "edges": [[0, 1]]})", "qubits: expected an integer");
  expect_rejection(R"({"qubits": 0, "edges": []})", "qubits: must be positive");
  expect_rejection(R"({"qubits": 5000, "edges": [[0, 1]]})", "qubits: implausibly large");
  expect_rejection(R"({"qubits": 2, "edges": []})", "edges: must not be empty");
  expect_rejection(R"({"qubits": 2, "edges": [[0, 1]], "bogus": 1})",
                   "unknown field \"bogus\"");
}

TEST(CouplingJsonReject, OutOfRangeEndpointsNameTheExactPath) {
  const auto e = expect_rejection(
      R"({"qubits": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 9]]})",
      "edges[3][1]: qubit index 9 out of range for 4 qubits");
  EXPECT_GT(e.column(), 1);
  expect_rejection(R"({"qubits": 3, "edges": [[0, 1], [1, 2], {"control": -1, "target": 0}]})",
                   "edges[2].control: qubit index -1 out of range");
  expect_rejection(R"({"qubits": 2, "edges": [[1, 1]]})",
                   "edges[0]: self-loop on qubit 1");
  // Integers beyond int are rejected, not wrapped: 4294967299 and
  // 4294967297 would otherwise load as qubits 3 and 1.
  expect_rejection(R"({"qubits": 4294967299, "edges": [[0, 4294967297], [1, 2]]})",
                   "qubits: integer out of range for int");
  expect_rejection(R"({"qubits": 3, "edges": [[0, 4294967297], [1, 2]]})",
                   "edges[0][1]: integer out of range for int");
  expect_rejection(R"({"qubits": 3, "edges": [{"control": -99999999999999999999, "target": 0}]})",
                   "edges[0].control: integer out of range for int");
  expect_rejection(R"({"qubits": 2, "edges": [[0]]})",
                   "edges[0]: expected a [control, target] pair, got 1 entries");
  expect_rejection(R"({"qubits": 2, "edges": [{"target": 1}]})",
                   "edges[0]: missing required field \"control\"");
  expect_rejection(R"({"qubits": 2, "edges": [{"control": 0, "target": 1, "weight": 2}]})",
                   "unknown field \"weight\"");
  expect_rejection(R"({"qubits": 2, "edges": ["0-1"]})",
                   "edges[0]: expected a [control, target] pair or an object");
}

TEST(CouplingJsonReject, DuplicateEdgesCiteTheFirstOccurrence) {
  expect_rejection(R"({"qubits": 3, "edges": [[0, 1], [1, 2], [0, 1]]})",
                   "edges[2]: duplicate edge (0,1), first seen at edges[0]");
  // Undirected maps normalise, so the reversed pair is the same edge...
  expect_rejection(R"({"qubits": 3, "edges": [[0, 1], [1, 0]]})",
                   "edges[1]: duplicate edge (1,0), first seen at edges[0]");
  // ...while a directed map legitimately holds both orientations.
  EXPECT_NO_THROW((void)load_coupling_json(
      R"({"qubits": 2, "directed": true, "edges": [[0, 1], [1, 0]]})"));
}

TEST(CouplingJsonReject, ErrorRatesOutsideTheUnitInterval) {
  expect_rejection(
      R"({"qubits": 2, "edges": [{"control": 0, "target": 1, "error": -0.1}]})",
      "edges[0].error: error rate must lie in [0, 1)");
  expect_rejection(
      R"({"qubits": 2, "edges": [{"control": 0, "target": 1, "error": 1.0}]})",
      "edges[0].error: error rate must lie in [0, 1)");
  expect_rejection(
      R"({"qubits": 2, "edges": [[0, 1]], "single_qubit_errors": [0.001, 2]})",
      "single_qubit_errors[1]: error rate must lie in [0, 1)");
  expect_rejection(
      R"({"qubits": 2, "edges": [[0, 1]], "readout_errors": [-1, 0.04]})",
      "readout_errors[0]: error rate must lie in [0, 1)");
}

TEST(CouplingJsonReject, PerQubitArraysMustMatchTheQubitCount) {
  expect_rejection(
      R"({"qubits": 3, "edges": [[0, 1], [1, 2]], "single_qubit_errors": [0.001]})",
      "single_qubit_errors: expected one entry per qubit (3), got 1");
  expect_rejection(
      R"({"qubits": 2, "edges": [[0, 1]], "readout_errors": [0.1, 0.2, 0.3]})",
      "readout_errors: expected one entry per qubit (2), got 3");
}

}  // namespace
}  // namespace qxmap
