#include "qasm/lexer.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numbers>
#include <string>

namespace qxmap {
namespace {

/// Asserts that parsing `src` raises a ParseError at the given 1-based
/// location whose message contains `substring`. Every rejection path in the
/// parser is pinned down this way (see docs/qasm-support.md).
void expect_parse_error(std::string_view src, int line, int column, std::string_view substring,
                        const qasm::ParseOptions& options = {}) {
  try {
    (void)qasm::parse(src, {}, options);
    FAIL() << "expected ParseError for: " << src;
  } catch (const qasm::ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_EQ(e.column(), column) << e.what();
    EXPECT_NE(std::string(e.what()).find(substring), std::string::npos)
        << "message missing \"" << substring << "\": " << e.what();
  }
}

TEST(QasmLexer, RejectsGarbage) {
  EXPECT_THROW(qasm::parse("qreg q[2]; @"), qasm::LexError);
  EXPECT_THROW(qasm::parse("qreg q[2]; \"unterminated"), qasm::LexError);
  // A number is read whole or rejected, never by its valid prefix.
  EXPECT_THROW(qasm::parse("qreg q[1];\nrz(1.2.3) q[0];"), qasm::LexError);
  EXPECT_THROW(qasm::parse("qreg q[1];\nrz(2e) q[0];"), qasm::LexError);
}

TEST(QasmLexer, LexErrorCarriesLocation) {
  try {
    (void)qasm::parse("qreg q[2];\n  @");
    FAIL() << "expected LexError";
  } catch (const qasm::LexError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 3);
  }
}

TEST(QasmParser, MinimalProgram) {
  const Circuit c = qasm::parse(R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[3];
    creg c[3];
    h q[0];
    cx q[0], q[1];
    t q[2];
  )");
  EXPECT_EQ(c.num_qubits(), 3);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.gate(0), Gate::single(OpKind::H, 0));
  EXPECT_EQ(c.gate(1), Gate::cnot(0, 1));
  EXPECT_EQ(c.gate(2), Gate::single(OpKind::T, 2));
}

TEST(QasmParser, HeaderIsOptional) {
  const Circuit c = qasm::parse("qreg q[1]; x q[0];");
  EXPECT_EQ(c.size(), 1u);
}

TEST(QasmParser, MultipleQregsAreFlattened) {
  const Circuit c = qasm::parse("qreg a[2]; qreg b[2]; cx a[1], b[0];");
  EXPECT_EQ(c.num_qubits(), 4);
  EXPECT_EQ(c.gate(0), Gate::cnot(1, 2));
}

TEST(QasmParser, ParameterExpressions) {
  const Circuit c = qasm::parse("qreg q[1]; rz(pi/2) q[0]; u3(pi, -pi/4, 2*0.5) q[0];");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c.gate(0).params[0], std::numbers::pi / 2);
  EXPECT_DOUBLE_EQ(c.gate(1).params[0], std::numbers::pi);
  EXPECT_DOUBLE_EQ(c.gate(1).params[1], -std::numbers::pi / 4);
  EXPECT_DOUBLE_EQ(c.gate(1).params[2], 1.0);
}

TEST(QasmParser, ExponentOperator) {
  const Circuit c = qasm::parse("qreg q[1]; rz(2^3) q[0];");
  EXPECT_DOUBLE_EQ(c.gate(0).params[0], 8.0);
}

TEST(QasmParser, ExpressionFunctions) {
  const Circuit c = qasm::parse(
      "qreg q[1];"
      "rz(sin(pi/2) + sqrt(4)) q[0];"
      "rx(ln(exp(2))) q[0];"
      "ry(cos(0) - tan(0)) q[0];");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c.gate(0).params[0], 3.0, 1e-12);
  EXPECT_NEAR(c.gate(1).params[0], 2.0, 1e-12);
  EXPECT_NEAR(c.gate(2).params[0], 1.0, 1e-12);
}

TEST(QasmParser, MeasureAndBarrier) {
  const Circuit c = qasm::parse(R"(
    qreg q[2]; creg c[2];
    barrier q;
    measure q[1] -> c[1];
  )");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gate(0).kind, OpKind::Barrier);
  EXPECT_EQ(c.gate(1), Gate::measure(1));
}

TEST(QasmParser, MeasureRecordsClassicalDestination) {
  const Circuit c = qasm::parse(R"(
    qreg q[2]; creg m[4];
    measure q[0] -> m[3];
    measure q[1] -> m[0];
  )");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gate(0), Gate::measure(0, "m", 3));
  EXPECT_EQ(c.gate(1), Gate::measure(1, "m", 0));
}

TEST(QasmParser, BroadcastMeasureRecordsPerBitDestinations) {
  const Circuit c = qasm::parse("qreg q[3]; creg out[3]; measure q -> out;");
  ASSERT_EQ(c.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(c.gate(i), Gate::measure(i, "out", i));
}

TEST(QasmParser, GuardedMeasureKeepsConditionAndDestination) {
  const Circuit c = qasm::parse("qreg q[1]; creg c[1]; creg m[2]; if (c == 1) measure q[0] -> m[1];");
  ASSERT_EQ(c.size(), 1u);
  Gate expected = Gate::measure(0, "m", 1);
  expected.condition = Condition{"c", 1, 1};
  EXPECT_EQ(c.gate(0), expected);
}

TEST(QasmParser, ResetIndexedAndBroadcast) {
  const Circuit c = qasm::parse("qreg q[3]; reset q[1]; reset q;");
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.gate(0), Gate::reset(1));
  EXPECT_EQ(c.gate(1), Gate::reset(0));
  EXPECT_EQ(c.gate(2), Gate::reset(1));
  EXPECT_EQ(c.gate(3), Gate::reset(2));
}

TEST(QasmParser, GuardedReset) {
  const Circuit c = qasm::parse("qreg q[2]; creg c[2]; if (c == 3) reset q[1];");
  ASSERT_EQ(c.size(), 1u);
  Gate expected = Gate::reset(1);
  expected.condition = Condition{"c", 2, 3};
  EXPECT_EQ(c.gate(0), expected);
}

TEST(QasmParser, CcxDecomposesToCliffordT) {
  const Circuit c = qasm::parse("qreg q[3]; ccx q[0], q[1], q[2];");
  const auto counts = c.counts();
  EXPECT_EQ(counts.cnot, 6);
  EXPECT_EQ(counts.single_qubit, 9);  // 2 H + 4 T + 3 Tdg
}

TEST(QasmParser, SpecBuiltinUAndCX) {
  // `U` and `CX` are the two builtins of the OpenQASM 2.0 spec itself.
  const Circuit c = qasm::parse("qreg q[2]; U(pi/2, 0, pi) q[0]; CX q[0], q[1];");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gate(0).kind, OpKind::U3);
  EXPECT_DOUBLE_EQ(c.gate(0).params[0], std::numbers::pi / 2);
  EXPECT_EQ(c.gate(1), Gate::cnot(0, 1));
}

TEST(QasmParser, SwapGate) {
  const Circuit c = qasm::parse("qreg q[2]; swap q[0], q[1];");
  EXPECT_EQ(c.gate(0), Gate::swap(0, 1));
}

// -- user-defined gates -----------------------------------------------------

TEST(QasmParser, CustomGateExpands) {
  const Circuit c = qasm::parse(R"(
qreg q[2];
gate bellpair a,b { h a; cx a,b; }
bellpair q[0], q[1];
bellpair q[1], q[0];
)");
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.gate(0), Gate::single(OpKind::H, 0));
  EXPECT_EQ(c.gate(1), Gate::cnot(0, 1));
  EXPECT_EQ(c.gate(2), Gate::single(OpKind::H, 1));
  EXPECT_EQ(c.gate(3), Gate::cnot(1, 0));
}

TEST(QasmParser, CustomGatesNest) {
  const Circuit c = qasm::parse(R"(
qreg q[3];
gate bellpair a,b { h a; cx a,b; }
gate ghz a,b,c { bellpair a,b; cx b,c; }
ghz q[0], q[1], q[2];
)");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.gate(0), Gate::single(OpKind::H, 0));
  EXPECT_EQ(c.gate(1), Gate::cnot(0, 1));
  EXPECT_EQ(c.gate(2), Gate::cnot(1, 2));
}

TEST(QasmParser, CustomGateParametersEvaluatePerCallSite) {
  const Circuit c = qasm::parse(R"(
qreg q[1];
gate twist(t) a { rz(t/2) a; rx(-t) a; }
twist(pi) q[0];
twist(pi/2) q[0];
)");
  ASSERT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c.gate(0).params[0], std::numbers::pi / 2);
  EXPECT_DOUBLE_EQ(c.gate(1).params[0], -std::numbers::pi);
  EXPECT_DOUBLE_EQ(c.gate(2).params[0], std::numbers::pi / 4);
  EXPECT_DOUBLE_EQ(c.gate(3).params[0], -std::numbers::pi / 2);
}

TEST(QasmParser, CustomGateBodyBarrierIsEmitted) {
  const Circuit c = qasm::parse("qreg q[2]; gate g a,b { h a; barrier a,b; h b; } g q[0], q[1];");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.gate(1).kind, OpKind::Barrier);
}

TEST(QasmParser, BundledQelibGatesExpandToPrimitives) {
  const Circuit cz = qasm::parse("include \"qelib1.inc\"; qreg q[2]; cz q[0], q[1];");
  ASSERT_EQ(cz.size(), 3u);
  EXPECT_EQ(cz.gate(0), Gate::single(OpKind::H, 1));
  EXPECT_EQ(cz.gate(1), Gate::cnot(0, 1));
  EXPECT_EQ(cz.gate(2), Gate::single(OpKind::H, 1));

  const Circuit cu1 = qasm::parse("include \"qelib1.inc\"; qreg q[2]; cu1(pi/2) q[0], q[1];");
  EXPECT_EQ(cu1.counts().cnot, 2);
  EXPECT_EQ(cu1.counts().single_qubit, 3);
  EXPECT_DOUBLE_EQ(cu1.gate(0).params[0], std::numbers::pi / 4);

  // cswap goes through the primitive ccx, which decomposes to Clifford+T.
  const Circuit cswap =
      qasm::parse("include \"qelib1.inc\"; qreg q[3]; cswap q[0], q[1], q[2];");
  EXPECT_EQ(cswap.counts().cnot, 8);
}

TEST(QasmParser, OpaqueDeclarationParsesButApplicationIsRejected) {
  const Circuit c = qasm::parse("opaque magic(a) x,y; qreg q[2]; h q[0];");
  EXPECT_EQ(c.size(), 1u);
  expect_parse_error("opaque magic x,y;\nqreg q[2];\nmagic q[0], q[1];", 3, 1,
                     "opaque gate 'magic' cannot be applied");
}

// -- classical conditionals -------------------------------------------------

TEST(QasmParser, IfConditionIsRecordedOnGates) {
  const Circuit c = qasm::parse(R"(
qreg q[2];
creg flag[2];
if (flag == 3) x q[0];
if (flag == 0) cx q[0], q[1];
)");
  ASSERT_EQ(c.size(), 2u);
  ASSERT_TRUE(c.gate(0).is_conditional());
  EXPECT_EQ(c.gate(0).condition->creg, "flag");
  EXPECT_EQ(c.gate(0).condition->width, 2);
  EXPECT_EQ(c.gate(0).condition->value, 3u);
  ASSERT_TRUE(c.gate(1).is_conditional());
  EXPECT_EQ(c.gate(1).condition->value, 0u);
}

TEST(QasmParser, IfAppliesToEveryGateOfAnExpandedCall) {
  const Circuit c = qasm::parse(R"(
qreg q[2];
creg f[1];
gate duo a,b { h a; cx a,b; }
if (f == 1) duo q[0], q[1];
)");
  ASSERT_EQ(c.size(), 2u);
  for (const auto& g : c) {
    ASSERT_TRUE(g.is_conditional());
    EXPECT_EQ(g.condition->creg, "f");
    EXPECT_EQ(g.condition->value, 1u);
  }
}

TEST(QasmParser, IfMeasure) {
  const Circuit c = qasm::parse("qreg q[1]; creg f[1]; creg o[1]; if (f == 1) measure q[0] -> o[0];");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gate(0).kind, OpKind::Measure);
  ASSERT_TRUE(c.gate(0).is_conditional());
  EXPECT_EQ(c.gate(0).condition->creg, "f");
}

// -- whole-register broadcast -----------------------------------------------

TEST(QasmParser, BroadcastSingleQubitGate) {
  const Circuit c = qasm::parse("qreg q[3]; h q;");
  ASSERT_EQ(c.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(c.gate(static_cast<std::size_t>(i)).target, i);
}

TEST(QasmParser, BroadcastTwoQubitGate) {
  const Circuit c = qasm::parse("qreg a[2]; qreg b[2]; cx a, b;");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gate(0), Gate::cnot(0, 2));
  EXPECT_EQ(c.gate(1), Gate::cnot(1, 3));
}

TEST(QasmParser, BroadcastMixedFixedAndRegister) {
  const Circuit c = qasm::parse("qreg a[1]; qreg b[2]; cx a[0], b;");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gate(0), Gate::cnot(0, 1));
  EXPECT_EQ(c.gate(1), Gate::cnot(0, 2));
}

TEST(QasmParser, BroadcastMeasure) {
  const Circuit c = qasm::parse("qreg q[3]; creg c[3]; measure q -> c;");
  ASSERT_EQ(c.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(c.gate(static_cast<std::size_t>(i)), Gate::measure(i));
}

// -- includes ---------------------------------------------------------------

TEST(QasmParser, IncludeSearchPathsResolveUserIncludes) {
  const std::string dir = ::testing::TempDir();
  const std::string inc = dir + "/mygates_qxmap_test.inc";
  {
    std::ofstream out(inc);
    out << "gate flip a { x a; }\n";
  }
  qasm::ParseOptions options;
  options.include_paths.push_back(dir);
  const Circuit c =
      qasm::parse("include \"mygates_qxmap_test.inc\"; qreg q[1]; flip q[0];", {}, options);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gate(0), Gate::single(OpKind::X, 0));
  std::remove(inc.c_str());
}

TEST(QasmParser, IncludesResolveRelativeToIncludingFile) {
  const std::string dir = ::testing::TempDir();
  const std::string inc = dir + "/neighbor_qxmap_test.inc";
  const std::string main_file = dir + "/main_qxmap_test.qasm";
  {
    std::ofstream out(inc);
    out << "gate flip a { x a; }\n";
  }
  {
    std::ofstream out(main_file);
    out << "include \"neighbor_qxmap_test.inc\";\nqreg q[1];\nflip q[0];\n";
  }
  const Circuit c = qasm::parse_file(main_file);
  EXPECT_EQ(c.size(), 1u);
  std::remove(inc.c_str());
  std::remove(main_file.c_str());
}

TEST(QasmParser, CircularIncludeIsRejected) {
  const std::string dir = ::testing::TempDir();
  const std::string a = dir + "/cyc_a_qxmap_test.inc";
  const std::string b = dir + "/cyc_b_qxmap_test.inc";
  {
    std::ofstream out(a);
    out << "include \"cyc_b_qxmap_test.inc\";\n";
  }
  {
    std::ofstream out(b);
    out << "include \"cyc_a_qxmap_test.inc\";\n";
  }
  qasm::ParseOptions options;
  options.include_paths.push_back(dir);
  try {
    (void)qasm::parse("include \"cyc_a_qxmap_test.inc\"; qreg q[1];", {}, options);
    FAIL() << "expected ParseError";
  } catch (const qasm::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("circular include"), std::string::npos) << e.what();
  }
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(QasmParser, LegacySkipIncludesOption) {
  qasm::ParseOptions options;
  options.resolve_includes = false;
  const Circuit c = qasm::parse("include \"no_such_file.inc\"; qreg q[1]; x q[0];", {}, options);
  EXPECT_EQ(c.size(), 1u);
}

TEST(QasmParser, ExpansionDepthLimit) {
  qasm::ParseOptions options;
  options.max_expansion_depth = 1;
  expect_parse_error(
      "qreg q[1];\n"
      "gate g1 a { x a; }\n"
      "gate g2 a { g1 a; }\n"
      "gate g3 a { g2 a; }\n"
      "g3 q[0];",
      5, 1, "max_expansion_depth", options);
}

TEST(QasmParser, ExpandedGateCountIsCapped) {
  // Each rejection comes before the statement emits anything, so neither
  // input allocates its 2e9 or 2^40 gates.
  expect_parse_error("qreg q[2000000000]; h q;", 1, 21, "max_gates");
  std::string chain = "gate g0 a { x a; }\n";
  for (int i = 1; i <= 40; ++i) {
    chain += "gate g" + std::to_string(i) + " a { g" + std::to_string(i - 1) + " a; g" +
             std::to_string(i - 1) + " a; }\n";
  }
  chain += "qreg q[1];\ng40 q[0];";
  expect_parse_error(chain, 43, 1, "max_gates");

  // The cap counts every emitted gate: broadcasts, custom bodies, CCX's 15
  // gates, measures, resets and barriers.
  qasm::ParseOptions options;
  options.max_gates = 4;
  EXPECT_EQ(qasm::parse("qreg q[4]; h q;", {}, options).size(), 4u);
  expect_parse_error("qreg q[5]; h q;", 1, 12, "max_gates (4)", options);
  expect_parse_error("qreg q[3]; gate g a { x a; y a; } g q[0]; g q[1]; g q[2];", 1, 51,
                     "max_gates", options);
  expect_parse_error("qreg q[3]; ccx q[0], q[1], q[2];", 1, 12, "max_gates", options);
  expect_parse_error("qreg q[3]; creg c[3]; h q[0]; h q[1]; measure q -> c;", 1, 47,
                     "max_gates", options);
  expect_parse_error("qreg q[3]; h q[0]; h q[1]; reset q;", 1, 34, "max_gates", options);
  expect_parse_error("qreg q[1]; h q; h q; h q; h q; barrier q;", 1, 32, "max_gates", options);
}

// -- diagnostics: every rejection path asserts line, column and message -----

TEST(QasmParser, DiagnosticsCarryLocationAndExcerpt) {
  // Rejections at known locations; one source construct per case.
  expect_parse_error("qreg q[2]; cx q[0], q[2];", 1, 21, "qubit index out of range");
  expect_parse_error("qreg q[2];\ncx q[0];", 2, 1, "expects 2 qubit(s), got 1");
  expect_parse_error("qreg q[2];\nzz q[0];", 2, 1, "unknown gate 'zz'");
  expect_parse_error("cx q[0], q[1];", 1, 4, "unknown qreg 'q'");
  expect_parse_error("qreg q[0];", 1, 8, "register size must be positive");
  expect_parse_error("qreg q[2];\nqreg q[2];", 2, 6, "duplicate qreg 'q'");
  expect_parse_error("creg c[1];\ncreg c[1];", 2, 6, "duplicate creg 'c'");
  expect_parse_error("qreg q[1];\nmeasure q[0] -> c[0];", 2, 17, "unknown creg 'c'");
  expect_parse_error("qreg q[1]; creg c[1];\nmeasure q[0] -> c[5];", 2, 17,
                     "classical bit index out of range");
  expect_parse_error("qreg q[1];\nrz(pi) q[0], q[0];", 2, 1, "expects 1 qubit(s), got 2");
  expect_parse_error("qreg q[1];\nrz() q[0];", 2, 1, "expects 1 parameter(s), got 0");
  expect_parse_error("qreg q[1];\nrz(*) q[0];", 2, 4, "expected expression");
  expect_parse_error("qreg q[1];\nrz(theta) q[0];", 2, 4, "unknown identifier 'theta'");
  expect_parse_error("qreg q[1];\nh(pi) q[0];", 2, 1, "expects 0 parameter(s), got 1");
  expect_parse_error("qreg q[2];\ncx q[0], q[0];", 2, 1, "duplicate qubit argument");
  expect_parse_error("qreg a[2]; qreg b[3];\ncx a, b;", 2, 7, "broadcast over different-sized");
  expect_parse_error("qreg q[2]; creg c[3];\nmeasure q -> c;", 2, 9, "broadcast measure needs");
  expect_parse_error("qreg q[2]; creg c[2];\nmeasure q -> c[0];", 2, 9,
                     "both indexed or both whole");
  expect_parse_error("qreg q[1]; creg c[1];\nif (f == 1) x q[0];", 2, 5, "unknown creg 'f'");
  expect_parse_error("qreg q[1]; creg c[1];\nif (c == 1.5) x q[0];", 2, 10,
                     "non-negative integer");
  expect_parse_error("qreg q[1]; creg c[1];\nif (c == 1) if (c == 1) x q[0];", 2, 13,
                     "nested 'if'");
  expect_parse_error("qreg q[1]; creg c[1];\nif (c == 1) barrier q;", 2, 13,
                     "must guard a gate application or measure");
  expect_parse_error("gate h a { x a; }", 1, 6, "cannot redefine builtin gate 'h'");
  expect_parse_error("gate g a { x a; }\ngate g a { y a; }", 2, 6, "redefinition of gate 'g'");
  expect_parse_error("gate g a { zz a; }", 1, 12, "unknown gate 'zz' in gate body");
  expect_parse_error("gate g a { x a[0]; }", 1, 15, "symbolic (no indexing)");
  expect_parse_error("gate g a { x b; }", 1, 14, "unknown qubit argument 'b'");
  expect_parse_error("gate g(t,t) a { rz(t) a; }", 1, 10, "duplicate parameter 't'");
  expect_parse_error("gate g a,a { x a; }", 1, 10, "duplicate qubit argument 'a'");
  expect_parse_error("gate g a { x a;", 1, 16, "unterminated gate body");
  expect_parse_error("include \"no_such_file_qxmap.inc\";", 1, 9, "cannot resolve include");
  expect_parse_error("qreg q[1]; 5;", 1, 12, "expected statement");
  // Register sizes, indices and `if` values are plain decimal integers: a
  // fraction or an exponent is rejected instead of truncated, and a value
  // too large for its field is rejected instead of cast.
  expect_parse_error("qreg q[2.5];", 1, 8, "register size must be a non-negative integer");
  expect_parse_error("creg c[1e1];", 1, 8, "register size must be a non-negative integer");
  expect_parse_error("qreg q[3000000000];", 1, 8, "register size 3000000000 is out of range");
  expect_parse_error("qreg a[2000000000]; qreg b[2000000000];", 1, 28,
                     "total qubit count exceeds 2147483647");
  expect_parse_error("qreg q[2]; h q[1e30];", 1, 16, "index must be a non-negative integer");
  expect_parse_error("qreg q[2]; h q[1.0];", 1, 16, "index must be a non-negative integer");
  expect_parse_error("qreg q[2]; h q[99999999999];", 1, 16, "index 99999999999 is out of range");
  expect_parse_error("qreg q[1]; creg c[1];\nmeasure q[0] -> c[4294967296];", 2, 19,
                     "index 4294967296 is out of range");
  expect_parse_error("qreg q[1]; creg c[1];\nif (c == 1e30) x q[0];", 2, 10,
                     "condition value must be a non-negative integer");
  expect_parse_error("qreg q[1]; creg c[1];\nif (c == 18446744073709551616) x q[0];", 2, 10,
                     "condition value 18446744073709551616 is out of range");
}

TEST(QasmParser, IfValueKeepsTheFullUnsignedRange) {
  const Circuit c = qasm::parse("qreg q[1]; creg c[64];\nif (c == 18446744073709551615) x q[0];");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gate(0).condition->value, std::numeric_limits<std::uint64_t>::max());
}

TEST(QasmParser, ErrorWhatShowsSourceLineWithCaret) {
  try {
    (void)qasm::parse("qreg q[2];\ncx q[0], q[2];");
    FAIL() << "expected ParseError";
  } catch (const qasm::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cx q[0], q[2];"), std::string::npos) << what;
    EXPECT_NE(what.find('^'), std::string::npos) << what;
  }
}

TEST(QasmParser, ParseFileErrorIncludesPath) {
  try {
    (void)qasm::parse_file("/no/such/dir/qxmap_missing.qasm");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/dir/qxmap_missing.qasm"), std::string::npos)
        << e.what();
  }
}

// -- writer -----------------------------------------------------------------

TEST(QasmWriter, RoundTrip) {
  Circuit c(3, "rt");
  c.h(0);
  c.cnot(2, 1);
  c.append(Gate::single(OpKind::Rz, 0, {0.25}));
  c.swap(0, 2);
  const std::string text = qasm::write(c);
  const Circuit back = qasm::parse(text);
  ASSERT_EQ(back.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back.gate(i).kind, c.gate(i).kind);
    EXPECT_EQ(back.gate(i).target, c.gate(i).target);
    EXPECT_EQ(back.gate(i).control, c.gate(i).control);
    for (std::size_t p = 0; p < c.gate(i).params.size(); ++p) {
      EXPECT_NEAR(back.gate(i).params[p], c.gate(i).params[p], 1e-9);
    }
  }
}

TEST(QasmWriter, ExpandSwapsOption) {
  Circuit c(2);
  c.swap(0, 1);
  qasm::WriterOptions opt;
  opt.expand_swaps = true;
  const Circuit back = qasm::parse(qasm::write(c, opt));
  EXPECT_EQ(back.counts().swap, 0);
  EXPECT_EQ(back.counts().cnot, 3);
  EXPECT_EQ(back.counts().single_qubit, 4);
}

TEST(QasmWriter, MeasureAllOption) {
  Circuit c(2);
  c.h(0);
  qasm::WriterOptions opt;
  opt.emit_measure_all = true;
  const Circuit back = qasm::parse(qasm::write(c, opt));
  EXPECT_EQ(back.size(), 3u);  // h + 2 measures
}

TEST(QasmWriter, ConditionedGatesEmitIfAndCregDeclaration) {
  Circuit c(2, "cond");
  Gate x = Gate::single(OpKind::X, 0);
  x.condition = Condition{"flag", 2, 3};
  c.append(x);
  const std::string text = qasm::write(c);
  EXPECT_NE(text.find("creg flag[2];"), std::string::npos) << text;
  EXPECT_NE(text.find("if(flag==3) x q[0];"), std::string::npos) << text;
}

TEST(QasmWriter, MeasureWiringRoundTrips) {
  // Indexed, broadcast and guarded measures must survive write → parse with
  // their original classical destinations (docs/qasm-support.md).
  const Circuit c = qasm::parse(R"(
    qreg q[3]; creg g[1]; creg m[3]; creg r[2];
    measure q[2] -> m[0];
    measure q[0] -> r[1];
    if (g == 1) measure q[1] -> m[2];
  )");
  const std::string text = qasm::write(c);
  EXPECT_NE(text.find("measure q[2] -> m[0];"), std::string::npos) << text;
  EXPECT_NE(text.find("measure q[0] -> r[1];"), std::string::npos) << text;
  EXPECT_NE(text.find("if(g==1) measure q[1] -> m[2];"), std::string::npos) << text;
  EXPECT_NE(text.find("creg m[3];"), std::string::npos) << text;
  EXPECT_NE(text.find("creg r[2];"), std::string::npos) << text;
  const Circuit back = qasm::parse(text);
  ASSERT_EQ(back.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back.gate(i).cbit, c.gate(i).cbit) << i;
    EXPECT_EQ(back.gate(i).condition, c.gate(i).condition) << i;
  }
}

TEST(QasmWriter, BroadcastMeasureRoundTrips) {
  const Circuit c = qasm::parse("qreg q[2]; creg out[2]; measure q -> out;");
  const Circuit back = qasm::parse(qasm::write(c));
  ASSERT_EQ(back.size(), 2u);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(back.gate(i), Gate::measure(i, "out", i));
}

TEST(QasmWriter, ResetRoundTrips) {
  Circuit c(2, "resets");
  c.append(Gate::reset(1));
  Gate guarded = Gate::reset(0);
  guarded.condition = Condition{"f", 1, 1};
  c.append(guarded);
  const std::string text = qasm::write(c);
  EXPECT_NE(text.find("reset q[1];"), std::string::npos) << text;
  EXPECT_NE(text.find("if(f==1) reset q[0];"), std::string::npos) << text;
  const Circuit back = qasm::parse(text);
  ASSERT_EQ(back.size(), c.size());
  EXPECT_EQ(back.gate(0), c.gate(0));
  EXPECT_EQ(back.gate(1), c.gate(1));
}

TEST(QasmWriter, DefaultMeasureStillTargetsC) {
  // Hand-built measures (no recorded wiring) keep the c[target] convention.
  Circuit c(2);
  c.append(Gate::measure(1));
  const std::string text = qasm::write(c);
  EXPECT_NE(text.find("creg c[2];"), std::string::npos) << text;
  EXPECT_NE(text.find("measure q[1] -> c[1];"), std::string::npos) << text;
}

TEST(QasmWriter, WriteFileErrorIncludesPath) {
  Circuit c(1);
  c.h(0);
  try {
    qasm::write_file(c, "/no/such/dir/qxmap_out.qasm");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/dir/qxmap_out.qasm"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace qxmap
