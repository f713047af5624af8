#include "real/real_parser.hpp"

#include <gtest/gtest.h>

#include <string>

#include "real/mct_decomposer.hpp"
#include "sim/unitary.hpp"

namespace qxmap {
namespace {

/// Classical MCT reference as a circuit the simulator understands is not
/// available (MCT is not an IR gate), so tests verify against manually
/// constructed permutation behaviour via the unitary simulator on the
/// decomposed circuit: |c1 c2 ... t> -> t flipped iff all controls 1.
void expect_mct_behaviour(const Circuit& c, const std::vector<int>& controls, int target) {
  const auto u = sim::circuit_unitary(c);
  const std::size_t dim = u.dimension();
  for (std::size_t input = 0; input < dim; ++input) {
    bool all_ones = true;
    for (const int ctl : controls) {
      if (!((input >> ctl) & 1u)) all_ones = false;
    }
    const std::size_t expected = all_ones ? (input ^ (1ULL << target)) : input;
    for (std::size_t row = 0; row < dim; ++row) {
      const double mag = std::abs(u.get(row, input));
      if (row == expected) {
        EXPECT_NEAR(mag, 1.0, 1e-9) << "input " << input;
      } else {
        EXPECT_NEAR(mag, 0.0, 1e-9) << "input " << input << " row " << row;
      }
    }
  }
}

TEST(MctDecomposer, NoControlIsX) {
  Circuit c(1);
  real::append_mct(c, {}, 0);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gate(0).kind, OpKind::X);
}

TEST(MctDecomposer, OneControlIsCnot) {
  Circuit c(2);
  real::append_mct(c, {1}, 0);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gate(0), Gate::cnot(1, 0));
}

TEST(MctDecomposer, ToffoliBehaviour) {
  Circuit c(3);
  real::append_mct(c, {0, 1}, 2);
  EXPECT_EQ(c.counts().cnot, 6);
  expect_mct_behaviour(c, {0, 1}, 2);
}

TEST(MctDecomposer, ThreeControlsWithBorrowedAncilla) {
  Circuit c(5);  // line 4 is idle and can be borrowed
  real::append_mct(c, {0, 1, 2}, 3);
  expect_mct_behaviour(c, {0, 1, 2}, 3);
}

TEST(MctDecomposer, ThreeControlsAncillaFree) {
  Circuit c(4);  // no idle line: Lemma 7.5 construction
  real::append_mct(c, {0, 1, 2}, 3);
  expect_mct_behaviour(c, {0, 1, 2}, 3);
}

TEST(MctDecomposer, FourControlsAncillaFree) {
  Circuit c(5);
  real::append_mct(c, {0, 1, 2, 3}, 4);
  expect_mct_behaviour(c, {0, 1, 2, 3}, 4);
}

TEST(MctDecomposer, RejectsAliasedOperands) {
  Circuit c(3);
  EXPECT_THROW(real::append_mct(c, {0, 0}, 2), std::invalid_argument);
  EXPECT_THROW(real::append_mct(c, {0, 2}, 2), std::invalid_argument);
}

TEST(MctDecomposer, FredkinBehaviour) {
  Circuit c(3);
  real::append_fredkin(c, {0}, 1, 2);
  const auto u = sim::circuit_unitary(c);
  // |c a b>: bit0 = control, bit1 = a, bit2 = b; swap a<->b iff control.
  for (std::size_t input = 0; input < 8; ++input) {
    std::size_t expected = input;
    if (input & 1u) {
      const auto a = (input >> 1) & 1u;
      const auto b = (input >> 2) & 1u;
      expected = (input & 1u) | (b << 1) | (a << 2);
    }
    EXPECT_NEAR(std::abs(u.get(expected, input)), 1.0, 1e-9) << input;
  }
}

TEST(MctDecomposer, DecomposedSizeIsMonotone) {
  EXPECT_EQ(real::mct_decomposed_size(1, 3), 1);
  EXPECT_EQ(real::mct_decomposed_size(2, 3), 15);
  EXPECT_GT(real::mct_decomposed_size(3, 4), 15);
  // Borrowed-ancilla route beats the ancilla-free route.
  EXPECT_LE(real::mct_decomposed_size(3, 5), real::mct_decomposed_size(3, 4));
}

constexpr const char* kToffoliReal = R"(
# 3-qubit example netlist
.version 2.0
.numvars 3
.variables a b c
.inputs a b c
.outputs a b c
.begin
t2 a b
t3 a b c
t1 c
.end
)";

TEST(RealParser, ParsesNetlist) {
  const auto file = real::parse(kToffoliReal, "toffoli_example");
  EXPECT_EQ(file.circuit.num_qubits(), 3);
  EXPECT_EQ(file.num_mct_gates, 3);
  EXPECT_EQ(file.max_controls, 2);
  // t2 a b -> CX(a, b); t1 c -> X(c); t3 decomposes to 15 gates.
  EXPECT_EQ(file.circuit.size(), 1u + 15u + 1u);
}

TEST(RealParser, XStyleOperands) {
  const auto file = real::parse(".numvars 2\n.begin\nt2 x0 x1\n.end\n");
  EXPECT_EQ(file.circuit.gate(0), Gate::cnot(0, 1));
}

TEST(RealParser, FredkinGate) {
  const auto file = real::parse(".numvars 3\n.variables a b c\n.begin\nf3 a b c\n.end\n");
  EXPECT_EQ(file.max_controls, 2);  // control a plus swap operand promoted
  EXPECT_GT(file.circuit.size(), 2u);
}

TEST(RealParser, CommentsAndWhitespace) {
  const auto file = real::parse(
      "# header comment\n.numvars 2 # trailing\n.variables p q\n.begin\n"
      "  t2 p q   # a CNOT\n\n.end\n");
  EXPECT_EQ(file.circuit.size(), 1u);
}

TEST(RealParser, Errors) {
  EXPECT_THROW(real::parse(".begin\nt1 a\n.end\n"), real::RealParseError);       // no numvars
  EXPECT_THROW(real::parse(".numvars 2\n.begin\nt1 zz\n.end\n"), real::RealParseError);
  EXPECT_THROW(real::parse(".numvars 2\n.begin\nt3 x0 x1\n.end\n"), real::RealParseError);
  EXPECT_THROW(real::parse(".numvars 2\n.begin\nv2 x0 x1\n.end\n"), real::RealParseError);
  EXPECT_THROW(real::parse(".numvars 2\n.begin\nt2 x0 x1\n"), real::RealParseError);  // no .end
  EXPECT_THROW(real::parse(".numvars 1\n.variables a b\n.begin\n.end\n"),
               real::RealParseError);
}

TEST(RealParser, MalformedNumericFieldsReportTheirLine) {
  // Each case must raise RealParseError naming its line, not a bare
  // std::invalid_argument / std::out_of_range from the integer conversion.
  const struct {
    const char* source;
    const char* message;
  } cases[] = {
      {"# header\n.numvars abc\n", "line 2: .numvars 'abc' is not an integer"},
      {".numvars 99999999999\n", "line 1: .numvars '99999999999' is out of range"},
      {".numvars 2\n.begin\nt99999999999 x0 x1\n.end\n",
       "line 3: gate size '99999999999' is out of range"},
      {".numvars 2\n.begin\nt2 x0 x99999999999\n.end\n",
       "line 3: operand index '99999999999' is out of range"},
  };
  for (const auto& c : cases) {
    try {
      (void)real::parse(c.source);
      ADD_FAILURE() << "expected RealParseError for: " << c.source;
    } catch (const real::RealParseError& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos) << e.what();
    }
  }
}

TEST(RealParser, DecomposedNetlistIsMappable) {
  // End-to-end sanity: parse, then ensure only {1q, CNOT} remain.
  const auto file = real::parse(kToffoliReal);
  for (const auto& g : file.circuit) {
    EXPECT_TRUE(g.is_single_qubit() || g.is_cnot()) << g.to_string();
  }
}

}  // namespace
}  // namespace qxmap
