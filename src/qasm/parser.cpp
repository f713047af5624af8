#include "qasm/parser.hpp"

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qasm/expr.hpp"
#include "qasm/lexer.hpp"

namespace qxmap::qasm {

namespace {

/// Bundled `qelib1.inc`. Only the gates that are *not* native IR primitives
/// appear here: the primitive qelib1 names (x, h, cx, ccx, …) are recognised
/// directly by the parser so they keep their symbolic identity through the
/// IR and the writer. Everything below macro-expands to primitives.
constexpr std::string_view kBundledQelib1 = R"QELIB(
// qxmap bundled qelib1.inc — non-primitive subset (see docs/qasm-support.md)
gate u(theta,phi,lambda) q { u3(theta,phi,lambda) q; }
gate p(lambda) q { u1(lambda) q; }
gate u0(gamma) q { id q; }
gate sx a { sdg a; h a; sdg a; }
gate sxdg a { s a; h a; s a; }
gate cz a,b { h b; cx a,b; h b; }
gate cy a,b { sdg b; cx a,b; s b; }
gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b; t b; h b; s b; x b; s a; }
gate crz(lambda) a,b { u1(lambda/2) b; cx a,b; u1(-lambda/2) b; cx a,b; }
gate cu1(lambda) a,b { u1(lambda/2) a; cx a,b; u1(-lambda/2) b; cx a,b; u1(lambda/2) b; }
gate cu3(theta,phi,lambda) c,t { u1((lambda+phi)/2) c; u1((lambda-phi)/2) t; cx c,t; u3(-theta/2,0,-(phi+lambda)/2) t; cx c,t; u3(theta/2,phi,0) t; }
gate cswap a,b,c { cx c,b; ccx a,b,c; cx c,b; }
gate crx(lambda) a,b { u1(pi/2) b; cx a,b; u3(-lambda/2,0,0) b; cx a,b; u3(lambda/2,-pi/2,0) b; }
gate cry(lambda) a,b { ry(lambda/2) b; cx a,b; ry(-lambda/2) b; cx a,b; }
gate rxx(theta) a,b { u3(pi/2,theta,0) a; h b; cx a,b; u1(-theta) b; cx a,b; h b; u2(-pi,pi-theta) a; }
gate rzz(theta) a,b { cx a,b; u1(theta) b; cx a,b; }
)QELIB";

/// Single-qubit primitive mnemonics -> IR kinds. `U` is the OpenQASM 2.0
/// builtin (same semantics as u3).
const std::map<std::string, OpKind, std::less<>>& single_qubit_primitives() {
  static const std::map<std::string, OpKind, std::less<>> kMap = {
      {"id", OpKind::I},  {"x", OpKind::X},     {"y", OpKind::Y},   {"z", OpKind::Z},
      {"h", OpKind::H},   {"s", OpKind::S},     {"sdg", OpKind::Sdg},
      {"t", OpKind::T},   {"tdg", OpKind::Tdg}, {"rx", OpKind::Rx}, {"ry", OpKind::Ry},
      {"rz", OpKind::Rz}, {"u1", OpKind::U1},   {"u2", OpKind::U2}, {"u3", OpKind::U3},
      {"U", OpKind::U3}};
  return kMap;
}

const std::map<std::string, UnaryOp, std::less<>>& expression_functions() {
  static const std::map<std::string, UnaryOp, std::less<>> kMap = {
      {"sin", UnaryOp::Sin}, {"cos", UnaryOp::Cos},   {"tan", UnaryOp::Tan},
      {"exp", UnaryOp::Exp}, {"ln", UnaryOp::Ln},     {"sqrt", UnaryOp::Sqrt}};
  return kMap;
}

/// A user-defined (or opaque) gate. Body gate arguments are stored as
/// un-evaluated expressions over the formal parameters; body qubit operands
/// are indices into the formal qubit-argument list.
struct GateDef {
  std::vector<std::string> params;
  std::vector<std::string> qargs;
  bool opaque = false;

  struct BodyOp {
    bool barrier = false;
    std::string callee;          // empty for barrier
    std::vector<Expr> args;
    std::vector<int> qubit_slots;  // indices into the caller's qargs
  };
  std::vector<BodyOp> body;
  /// Gates one application emits once fully expanded, saturated at the
  /// largest std::uint64_t; computed once, at definition time.
  std::uint64_t expanded_size = 0;
};

struct RegInfo {
  int offset = 0;
  int size = 0;
};

/// State shared between the top-level parser and include sub-parsers.
struct ParseState {
  const ParseOptions* options = nullptr;
  std::map<std::string, RegInfo> qregs;    // name -> (offset, size)
  std::map<std::string, int> cregs;        // name -> width
  std::map<std::string, GateDef> gate_defs;
  std::set<std::string> included;          // canonical include keys (idempotence)
  std::vector<std::string> include_stack;  // open includes (cycle detection)
  int total_qubits = 0;
  std::vector<Gate> gates;
};

/// Gates emitted by one CCX (its Clifford+T decomposition).
constexpr std::uint64_t kCcxGates = 15;

/// (#params, #qubits, #gates one application emits once fully expanded) of
/// a gate name, or nullopt if unknown.
struct Signature {
  int num_params = 0;
  int num_qubits = 0;
  std::uint64_t num_gates = 1;
};

std::optional<Signature> signature_of(const ParseState& state, std::string_view name) {
  const auto& singles = single_qubit_primitives();
  if (const auto it = singles.find(name); it != singles.end()) {
    return Signature{parameter_count(it->second), 1};
  }
  if (name == "cx" || name == "CX" || name == "swap") return Signature{0, 2};
  if (name == "ccx") return Signature{0, 3, kCcxGates};
  if (const auto it = state.gate_defs.find(std::string(name)); it != state.gate_defs.end()) {
    return Signature{static_cast<int>(it->second.params.size()),
                     static_cast<int>(it->second.qargs.size()), it->second.expanded_size};
  }
  return std::nullopt;
}

/// a + b, saturated at the largest std::uint64_t.
std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > std::numeric_limits<std::uint64_t>::max() - b
             ? std::numeric_limits<std::uint64_t>::max()
             : a + b;
}

bool is_primitive(std::string_view name) {
  return single_qubit_primitives().contains(name) || name == "cx" || name == "CX" ||
         name == "swap" || name == "ccx";
}

/// The source line `line` (1-based) rendered with a caret under `column`,
/// for ParseError excerpts.
std::string line_excerpt(std::string_view src, int line, int column) {
  std::size_t start = 0;
  for (int l = 1; l < line && start < src.size(); ++l) {
    const std::size_t nl = src.find('\n', start);
    if (nl == std::string_view::npos) return {};
    start = nl + 1;
  }
  std::size_t end = src.find('\n', start);
  if (end == std::string_view::npos) end = src.size();
  std::string text(src.substr(start, end - start));
  if (text.empty()) return {};
  std::string caret(static_cast<std::size_t>(column > 0 ? column - 1 : 0), ' ');
  return "  " + text + "\n  " + caret + '^';
}

/// The bundled qelib1 gate definitions, parsed once per process.
const std::map<std::string, GateDef>& bundled_qelib1_defs();

class Parser {
 public:
  Parser(std::string_view src, std::string file, ParseState& state)
      : src_(src), file_(std::move(file)), tokens_(tokenize(src)), state_(state) {}

  void run() {
    parse_header();
    while (peek().kind != TokenKind::EndOfFile) parse_statement();
  }

 private:
  [[noreturn]] void fail(const std::string& message, const Token& at) const {
    throw ParseError(message, at.line, at.column, line_excerpt(src_, at.line, at.column), file_);
  }

  /// The value of an integer literal: a register size, a qubit or bit
  /// index, or an `if` value. OpenQASM 2.0 writes these as plain decimal
  /// digits, so a fraction or an exponent fails like a value above `max`.
  [[nodiscard]] std::uint64_t integer(const Token& tok, const std::string& what,
                                      std::uint64_t max) const {
    std::uint64_t value = 0;
    const char* last = tok.text.data() + tok.text.size();
    const auto [end, ec] = std::from_chars(tok.text.data(), last, value);
    if (end != last || ec == std::errc::invalid_argument) {
      fail(what + " must be a non-negative integer", tok);
    }
    if (ec == std::errc::result_out_of_range || value > max) {
      fail(what + " " + tok.text + " is out of range (at most " + std::to_string(max) + ")", tok);
    }
    return value;
  }

  [[nodiscard]] const Token& peek() const { return tokens_[pos_]; }

  const Token& advance() { return tokens_[pos_++]; }

  const Token& expect(TokenKind k, const std::string& what) {
    const Token& t = peek();
    if (t.kind != k) fail("expected " + what + ", got '" + describe(t) + "'", t);
    return advance();
  }

  [[nodiscard]] bool accept(TokenKind k) {
    if (peek().kind == k) {
      ++pos_;
      return true;
    }
    return false;
  }

  static std::string describe(const Token& t) {
    switch (t.kind) {
      case TokenKind::EndOfFile: return "<end of input>";
      case TokenKind::Semicolon: return ";";
      case TokenKind::Comma: return ",";
      case TokenKind::LParen: return "(";
      case TokenKind::RParen: return ")";
      case TokenKind::LBracket: return "[";
      case TokenKind::RBracket: return "]";
      case TokenKind::LBrace: return "{";
      case TokenKind::RBrace: return "}";
      case TokenKind::Arrow: return "->";
      case TokenKind::EqEq: return "==";
      case TokenKind::Plus: return "+";
      case TokenKind::Minus: return "-";
      case TokenKind::Star: return "*";
      case TokenKind::Slash: return "/";
      case TokenKind::Caret: return "^";
      default: return t.text;
    }
  }

  void parse_header() {
    // `OPENQASM 2.0;` is optional so bare gate lists are accepted too.
    if (peek().kind == TokenKind::Identifier && peek().text == "OPENQASM") {
      advance();
      expect(TokenKind::Number, "version number");
      expect(TokenKind::Semicolon, "';'");
    }
  }

  void parse_statement() {
    const Token& t = peek();
    if (t.kind != TokenKind::Identifier) {
      fail("expected statement, got '" + describe(t) + "'", t);
    }
    const std::string head = t.text;
    if (head == "include") {
      parse_include();
      return;
    }
    if (head == "qreg" || head == "creg") {
      parse_register(head == "qreg");
      return;
    }
    if (head == "gate") {
      parse_gate_definition(/*opaque=*/false);
      return;
    }
    if (head == "opaque") {
      parse_gate_definition(/*opaque=*/true);
      return;
    }
    if (head == "if") {
      parse_if();
      return;
    }
    if (head == "barrier") {
      reserve_gates(1, 1, advance());
      // The qubit list is irrelevant for mapping; consume it.
      while (peek().kind != TokenKind::Semicolon && peek().kind != TokenKind::EndOfFile) advance();
      expect(TokenKind::Semicolon, "';'");
      state_.gates.push_back(Gate::barrier());
      return;
    }
    if (head == "measure") {
      parse_measure(std::nullopt);
      return;
    }
    if (head == "reset") {
      parse_reset(std::nullopt);
      return;
    }
    parse_gate_application(std::nullopt);
  }

  // -- registers ------------------------------------------------------------

  void parse_register(bool quantum) {
    advance();  // qreg/creg
    const Token& name = expect(TokenKind::Identifier, "register name");
    expect(TokenKind::LBracket, "'['");
    const Token& size = expect(TokenKind::Number, "register size");
    expect(TokenKind::RBracket, "']'");
    expect(TokenKind::Semicolon, "';'");
    constexpr int kMaxInt = std::numeric_limits<int>::max();
    const int n = static_cast<int>(integer(size, "register size", kMaxInt));
    if (n <= 0) fail("register size must be positive", size);
    if (quantum) {
      if (state_.qregs.contains(name.text)) fail("duplicate qreg '" + name.text + "'", name);
      if (n > kMaxInt - state_.total_qubits) {
        fail("total qubit count exceeds " + std::to_string(kMaxInt), size);
      }
      state_.qregs[name.text] = {state_.total_qubits, n};
      state_.total_qubits += n;
    } else {
      if (state_.cregs.contains(name.text)) fail("duplicate creg '" + name.text + "'", name);
      state_.cregs[name.text] = n;
    }
  }

  // -- includes -------------------------------------------------------------

  void parse_include() {
    advance();  // include
    const Token name = expect(TokenKind::String, "include file name");
    expect(TokenKind::Semicolon, "';'");

    if (name.text == "qelib1.inc") {
      if (state_.included.insert("qelib1.inc").second) {
        // First definition wins, as if the include were parsed in place.
        for (const auto& [gate_name, def] : bundled_qelib1_defs()) {
          state_.gate_defs.emplace(gate_name, def);
        }
      }
      return;
    }
    if (!state_.options->resolve_includes) return;

    namespace fs = std::filesystem;
    std::vector<fs::path> candidates;
    if (!file_.empty()) {
      const fs::path parent = fs::path(file_).parent_path();
      if (!parent.empty()) candidates.push_back(parent / name.text);
    }
    for (const auto& dir : state_.options->include_paths) {
      candidates.push_back(fs::path(dir) / name.text);
    }

    for (const auto& candidate : candidates) {
      std::error_code ec;
      if (!fs::exists(candidate, ec)) continue;
      const std::string key = fs::weakly_canonical(candidate, ec).string();
      for (const auto& open : state_.include_stack) {
        if (open == key) fail("circular include of \"" + name.text + "\"", name);
      }
      if (!state_.included.insert(key).second) return;  // already processed
      std::ifstream in(candidate);
      if (!in) {
        fail("cannot open include file '" + candidate.string() + "': " + std::strerror(errno),
             name);
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      const std::string text = ss.str();
      state_.include_stack.push_back(key);
      Parser sub(text, candidate.string(), state_);
      sub.run();
      state_.include_stack.pop_back();
      return;
    }
    fail("cannot resolve include \"" + name.text +
             "\" (searched the including file's directory and ParseOptions::include_paths)",
         name);
  }

  // -- gate definitions -----------------------------------------------------

  void parse_gate_definition(bool opaque) {
    advance();  // gate/opaque
    const Token name = expect(TokenKind::Identifier, "gate name");
    if (is_primitive(name.text)) fail("cannot redefine builtin gate '" + name.text + "'", name);
    if (state_.gate_defs.contains(name.text)) {
      fail("redefinition of gate '" + name.text + "'", name);
    }

    GateDef def;
    def.opaque = opaque;
    std::map<std::string, int> param_index;
    if (accept(TokenKind::LParen)) {
      if (peek().kind != TokenKind::RParen) {
        do {
          const Token& p = expect(TokenKind::Identifier, "parameter name");
          if (param_index.contains(p.text)) fail("duplicate parameter '" + p.text + "'", p);
          param_index[p.text] = static_cast<int>(def.params.size());
          def.params.push_back(p.text);
        } while (accept(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "')'");
    }

    std::map<std::string, int> qarg_index;
    do {
      const Token& q = expect(TokenKind::Identifier, "qubit argument name");
      if (qarg_index.contains(q.text)) fail("duplicate qubit argument '" + q.text + "'", q);
      qarg_index[q.text] = static_cast<int>(def.qargs.size());
      def.qargs.push_back(q.text);
    } while (accept(TokenKind::Comma));

    if (opaque) {
      expect(TokenKind::Semicolon, "';'");
      state_.gate_defs.emplace(name.text, std::move(def));
      return;
    }

    expect(TokenKind::LBrace, "'{'");
    while (!accept(TokenKind::RBrace)) {
      if (peek().kind == TokenKind::EndOfFile) fail("unterminated gate body", peek());
      def.body.push_back(parse_body_op(param_index, qarg_index));
      const auto& op = def.body.back();
      def.expanded_size = saturating_add(
          def.expanded_size, op.barrier ? 1 : signature_of(state_, op.callee)->num_gates);
    }
    state_.gate_defs.emplace(name.text, std::move(def));
  }

  GateDef::BodyOp parse_body_op(const std::map<std::string, int>& params,
                                const std::map<std::string, int>& qargs) {
    const Token head = expect(TokenKind::Identifier, "gate application");
    GateDef::BodyOp op;
    if (head.text == "barrier") {
      op.barrier = true;
      while (peek().kind != TokenKind::Semicolon && peek().kind != TokenKind::EndOfFile) advance();
      expect(TokenKind::Semicolon, "';'");
      return op;
    }
    op.callee = head.text;
    const auto sig = signature_of(state_, head.text);
    if (!sig) {
      fail("unknown gate '" + head.text + "' in gate body (gates must be defined before use)",
           head);
    }
    if (const auto it = state_.gate_defs.find(head.text);
        it != state_.gate_defs.end() && it->second.opaque) {
      fail("opaque gate '" + head.text + "' cannot be applied (it has no definition)", head);
    }
    if (accept(TokenKind::LParen)) {
      if (peek().kind != TokenKind::RParen) {
        do {
          op.args.push_back(parse_expression(&params));
        } while (accept(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "')'");
    }
    if (static_cast<int>(op.args.size()) != sig->num_params) {
      fail("gate '" + head.text + "' expects " + std::to_string(sig->num_params) +
               " parameter(s), got " + std::to_string(op.args.size()),
           head);
    }
    do {
      const Token& q = expect(TokenKind::Identifier, "qubit argument");
      const auto it = qargs.find(q.text);
      if (it == qargs.end()) {
        if (peek().kind == TokenKind::LBracket) {
          fail("qubit arguments inside a gate body are symbolic (no indexing)", q);
        }
        fail("unknown qubit argument '" + q.text + "' in gate body", q);
      }
      if (peek().kind == TokenKind::LBracket) {
        fail("qubit arguments inside a gate body are symbolic (no indexing)", peek());
      }
      op.qubit_slots.push_back(it->second);
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Semicolon, "';'");
    if (static_cast<int>(op.qubit_slots.size()) != sig->num_qubits) {
      fail("gate '" + head.text + "' expects " + std::to_string(sig->num_qubits) +
               " qubit(s), got " + std::to_string(op.qubit_slots.size()),
           head);
    }
    for (std::size_t i = 0; i < op.qubit_slots.size(); ++i) {
      for (std::size_t j = i + 1; j < op.qubit_slots.size(); ++j) {
        if (op.qubit_slots[i] == op.qubit_slots[j]) {
          fail("duplicate qubit argument in application of '" + head.text + "'", head);
        }
      }
    }
    return op;
  }

  // -- conditionals ---------------------------------------------------------

  void parse_if() {
    advance();  // if
    expect(TokenKind::LParen, "'('");
    const Token creg = expect(TokenKind::Identifier, "classical register");
    const auto it = state_.cregs.find(creg.text);
    if (it == state_.cregs.end()) fail("unknown creg '" + creg.text + "'", creg);
    expect(TokenKind::EqEq, "'=='");
    const Token value = expect(TokenKind::Number, "comparison value");
    Condition cond;
    cond.value = integer(value, "condition value", std::numeric_limits<std::uint64_t>::max());
    expect(TokenKind::RParen, "')'");

    cond.creg = creg.text;
    cond.width = it->second;

    const Token& op = peek();
    if (op.kind != TokenKind::Identifier) {
      fail("expected a gate application or measure after 'if (…)'", op);
    }
    if (op.text == "measure") {
      parse_measure(cond);
      return;
    }
    if (op.text == "reset") {
      parse_reset(cond);
      return;
    }
    if (op.text == "if") fail("nested 'if' is not allowed in OpenQASM 2.0", op);
    if (op.text == "barrier" || op.text == "gate" || op.text == "opaque" ||
        op.text == "qreg" || op.text == "creg" || op.text == "include") {
      fail("'if' must guard a gate application or measure, got '" + op.text + "'", op);
    }
    parse_gate_application(cond);
  }

  // -- operands -------------------------------------------------------------

  /// A quantum or classical argument: `name` (whole register, index == -1)
  /// or `name[idx]`.
  struct Operand {
    Token name;
    int index = -1;
  };

  Operand parse_operand() {
    Operand op;
    op.name = expect(TokenKind::Identifier, "register name");
    if (accept(TokenKind::LBracket)) {
      const Token& idx = expect(TokenKind::Number, "index");
      expect(TokenKind::RBracket, "']'");
      op.index = static_cast<int>(integer(idx, "index", std::numeric_limits<int>::max()));
    }
    return op;
  }

  const RegInfo& qreg_of(const Operand& op) {
    const auto it = state_.qregs.find(op.name.text);
    if (it == state_.qregs.end()) fail("unknown qreg '" + op.name.text + "'", op.name);
    if (op.index >= it->second.size) fail("qubit index out of range", op.name);
    return it->second;
  }

  // -- measure --------------------------------------------------------------

  void parse_measure(const std::optional<Condition>& cond) {
    advance();  // measure
    const Operand q = parse_operand();
    expect(TokenKind::Arrow, "'->'");
    const Operand c = parse_operand();
    expect(TokenKind::Semicolon, "';'");

    const RegInfo& qr = qreg_of(q);
    const auto cit = state_.cregs.find(c.name.text);
    if (cit == state_.cregs.end()) fail("unknown creg '" + c.name.text + "'", c.name);
    if (c.index >= cit->second) fail("classical bit index out of range", c.name);

    const auto emit = [&](int qubit, int bit) {
      Gate g = Gate::measure(qubit, c.name.text, bit);
      g.condition = cond;
      state_.gates.push_back(std::move(g));
    };
    if (q.index >= 0 && c.index >= 0) {
      emit(qr.offset + q.index, c.index);
      return;
    }
    if (q.index < 0 && c.index < 0) {
      if (qr.size != cit->second) {
        fail("broadcast measure needs same-sized registers (" + q.name.text + "[" +
                 std::to_string(qr.size) + "] vs " + c.name.text + "[" +
                 std::to_string(cit->second) + "])",
             q.name);
      }
      reserve_gates(static_cast<std::uint64_t>(qr.size), 1, q.name);
      for (int i = 0; i < qr.size; ++i) emit(qr.offset + i, i);
      return;
    }
    fail("measure operands must be both indexed or both whole registers", q.name);
  }

  // -- reset ----------------------------------------------------------------

  void parse_reset(const std::optional<Condition>& cond) {
    advance();  // reset
    const Operand q = parse_operand();
    expect(TokenKind::Semicolon, "';'");
    const RegInfo& qr = qreg_of(q);
    const auto emit = [&](int qubit) {
      Gate g = Gate::reset(qubit);
      g.condition = cond;
      state_.gates.push_back(std::move(g));
    };
    if (q.index >= 0) {
      emit(qr.offset + q.index);
    } else {
      reserve_gates(static_cast<std::uint64_t>(qr.size), 1, q.name);
      for (int i = 0; i < qr.size; ++i) emit(qr.offset + i);  // broadcast
    }
  }

  // -- gate applications ----------------------------------------------------

  void parse_gate_application(const std::optional<Condition>& cond) {
    const Token mnemonic = advance();
    const auto sig = signature_of(state_, mnemonic.text);
    if (!sig) fail("unknown gate '" + mnemonic.text + "'", mnemonic);
    if (const auto it = state_.gate_defs.find(mnemonic.text);
        it != state_.gate_defs.end() && it->second.opaque) {
      fail("opaque gate '" + mnemonic.text + "' cannot be applied (it has no definition)",
           mnemonic);
    }

    std::vector<double> params;
    if (accept(TokenKind::LParen)) {
      if (peek().kind != TokenKind::RParen) {
        do {
          params.push_back(parse_expression(nullptr).eval({}));
        } while (accept(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "')'");
    }
    if (static_cast<int>(params.size()) != sig->num_params) {
      fail("gate '" + mnemonic.text + "' expects " + std::to_string(sig->num_params) +
               " parameter(s), got " + std::to_string(params.size()),
           mnemonic);
    }

    std::vector<Operand> operands;
    operands.push_back(parse_operand());
    while (accept(TokenKind::Comma)) operands.push_back(parse_operand());
    expect(TokenKind::Semicolon, "';'");
    if (static_cast<int>(operands.size()) != sig->num_qubits) {
      fail("gate '" + mnemonic.text + "' expects " + std::to_string(sig->num_qubits) +
               " qubit(s), got " + std::to_string(operands.size()),
           mnemonic);
    }

    // Whole-register operands broadcast the application; every bare register
    // must have the same size (indexed operands stay fixed).
    int broadcast = -1;
    for (const auto& op : operands) {
      const RegInfo& r = qreg_of(op);
      if (op.index >= 0) continue;
      if (broadcast == -1) {
        broadcast = r.size;
      } else if (broadcast != r.size) {
        fail("broadcast over different-sized registers (" + std::to_string(broadcast) + " vs " +
                 std::to_string(r.size) + ")",
             op.name);
      }
    }

    const int repetitions = broadcast == -1 ? 1 : broadcast;
    reserve_gates(static_cast<std::uint64_t>(repetitions), sig->num_gates, mnemonic);
    for (int rep = 0; rep < repetitions; ++rep) {
      std::vector<int> qubits;
      qubits.reserve(operands.size());
      for (const auto& op : operands) {
        const RegInfo& r = qreg_of(op);
        qubits.push_back(r.offset + (op.index >= 0 ? op.index : rep));
      }
      for (std::size_t i = 0; i < qubits.size(); ++i) {
        for (std::size_t j = i + 1; j < qubits.size(); ++j) {
          if (qubits[i] == qubits[j]) {
            fail("duplicate qubit argument in application of '" + mnemonic.text + "'", mnemonic);
          }
        }
      }
      emit_call(mnemonic.text, params, qubits, cond, /*depth=*/0, mnemonic);
    }
  }

  /// Rejects, at `site`, a statement that would emit `repetitions` × `size`
  /// gates and so take the gate stream past ParseOptions::max_gates.
  void reserve_gates(std::uint64_t repetitions, std::uint64_t size, const Token& site) {
    const std::uint64_t cap = state_.options->max_gates;
    const std::uint64_t used = state_.gates.size();
    if (used > cap || (size > 0 && repetitions > (cap - used) / size)) {
      fail("gate expansion exceeds ParseOptions::max_gates (" + std::to_string(cap) + ")", site);
    }
  }

  /// Emits `name(params) qubits` into the gate stream, macro-expanding
  /// user-defined gates recursively. Arities were validated at parse /
  /// definition time.
  void emit_call(const std::string& name, const std::vector<double>& params,
                 const std::vector<int>& qubits, const std::optional<Condition>& cond, int depth,
                 const Token& site) {
    if (depth > state_.options->max_expansion_depth) {
      fail("gate expansion exceeds ParseOptions::max_expansion_depth (" +
               std::to_string(state_.options->max_expansion_depth) + ")",
           site);
    }
    const auto& singles = single_qubit_primitives();
    if (const auto it = singles.find(name); it != singles.end()) {
      state_.gates.push_back(Gate::single(it->second, qubits[0], params).with_condition(cond));
      return;
    }
    if (name == "cx" || name == "CX") {
      state_.gates.push_back(Gate::cnot(qubits[0], qubits[1]).with_condition(cond));
      return;
    }
    if (name == "swap") {
      state_.gates.push_back(Gate::swap(qubits[0], qubits[1]).with_condition(cond));
      return;
    }
    if (name == "ccx") {
      emit_ccx(qubits[0], qubits[1], qubits[2], cond);
      return;
    }
    const GateDef& def = state_.gate_defs.at(name);
    for (const auto& op : def.body) {
      if (op.barrier) {
        // Barriers are structural; a guard on the call does not apply.
        state_.gates.push_back(Gate::barrier());
        continue;
      }
      std::vector<double> values;
      values.reserve(op.args.size());
      for (const auto& e : op.args) values.push_back(e.eval(params));
      std::vector<int> mapped;
      mapped.reserve(op.qubit_slots.size());
      for (const int slot : op.qubit_slots) {
        mapped.push_back(qubits[static_cast<std::size_t>(slot)]);
      }
      emit_call(op.callee, values, mapped, cond, depth + 1, site);
    }
  }

  /// Textbook Clifford+T decomposition of CCX(c1, c2, t): 2 H, 7 T/Tdg,
  /// 6 CX. A guard on the CCX rides along to every emitted gate.
  void emit_ccx(int c1, int c2, int t, const std::optional<Condition>& cond) {
    const auto emit = [&](Gate g) {
      state_.gates.push_back(std::move(g).with_condition(cond));
    };
    emit(Gate::single(OpKind::H, t));
    emit(Gate::cnot(c2, t));
    emit(Gate::single(OpKind::Tdg, t));
    emit(Gate::cnot(c1, t));
    emit(Gate::single(OpKind::T, t));
    emit(Gate::cnot(c2, t));
    emit(Gate::single(OpKind::Tdg, t));
    emit(Gate::cnot(c1, t));
    emit(Gate::single(OpKind::T, c2));
    emit(Gate::single(OpKind::T, t));
    emit(Gate::cnot(c1, c2));
    emit(Gate::single(OpKind::H, t));
    emit(Gate::single(OpKind::T, c1));
    emit(Gate::single(OpKind::Tdg, c2));
    emit(Gate::cnot(c1, c2));
  }

  // -- expressions ----------------------------------------------------------
  // expr := term (('+'|'-') term)*; term := factor (('*'|'/') factor)*;
  // factor := primary ('^' factor)?; primary := number | pi | param |
  // func '(' expr ')' | '-' factor | '(' expr ')'.
  // `params` maps formal parameter names (inside gate bodies); nullptr at
  // top level, where only constants are legal.

  Expr parse_expression(const std::map<std::string, int>* params) {
    Expr v = parse_term(params);
    for (;;) {
      if (accept(TokenKind::Plus)) {
        v = Expr::binary(BinaryOp::Add, std::move(v), parse_term(params));
      } else if (accept(TokenKind::Minus)) {
        v = Expr::binary(BinaryOp::Sub, std::move(v), parse_term(params));
      } else {
        return v;
      }
    }
  }

  Expr parse_term(const std::map<std::string, int>* params) {
    Expr v = parse_factor(params);
    for (;;) {
      if (accept(TokenKind::Star)) {
        v = Expr::binary(BinaryOp::Mul, std::move(v), parse_factor(params));
      } else if (accept(TokenKind::Slash)) {
        v = Expr::binary(BinaryOp::Div, std::move(v), parse_factor(params));
      } else {
        return v;
      }
    }
  }

  Expr parse_factor(const std::map<std::string, int>* params) {
    Expr v = parse_primary(params);
    if (accept(TokenKind::Caret)) {
      v = Expr::binary(BinaryOp::Pow, std::move(v), parse_factor(params));
    }
    return v;
  }

  Expr parse_primary(const std::map<std::string, int>* params) {
    const Token& t = peek();
    if (accept(TokenKind::Minus)) return Expr::unary(UnaryOp::Neg, parse_factor(params));
    if (t.kind == TokenKind::Number) {
      advance();
      return Expr::number(t.number);
    }
    if (t.kind == TokenKind::Identifier) {
      if (t.text == "pi") {
        advance();
        return Expr::pi();
      }
      if (const auto fit = expression_functions().find(t.text);
          fit != expression_functions().end()) {
        advance();
        expect(TokenKind::LParen, "'('");
        Expr arg = parse_expression(params);
        expect(TokenKind::RParen, "')'");
        return Expr::unary(fit->second, std::move(arg));
      }
      if (params != nullptr) {
        if (const auto pit = params->find(t.text); pit != params->end()) {
          advance();
          return Expr::parameter(pit->second);
        }
      }
      fail("unknown identifier '" + t.text + "' in expression", t);
    }
    if (accept(TokenKind::LParen)) {
      Expr v = parse_expression(params);
      expect(TokenKind::RParen, "')'");
      return v;
    }
    fail("expected expression, got '" + describe(t) + "'", t);
  }

  std::string_view src_;
  std::string file_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  ParseState& state_;
};

const std::map<std::string, GateDef>& bundled_qelib1_defs() {
  // Magic-static: thread-safe, parsed exactly once per process instead of
  // once per parse() call that includes qelib1.
  static const std::map<std::string, GateDef> kDefs = [] {
    const ParseOptions options;
    ParseState state;
    state.options = &options;
    Parser sub(kBundledQelib1, "qelib1.inc", state);
    sub.run();
    return std::move(state.gate_defs);
  }();
  return kDefs;
}

}  // namespace

Circuit parse(std::string_view source, std::string name, const ParseOptions& options) {
  obs::Span span("qasm.parse", "qasm");
  span.attr("name", name);
  static obs::Counter& parses = obs::MetricsRegistry::instance().counter(
      "qxmap_qasm_parses_total", "OpenQASM sources parsed");
  parses.inc();
  ParseState state;
  state.options = &options;
  Parser parser(source, name, state);
  parser.run();
  Circuit circuit(state.total_qubits, std::move(name));
  for (auto& g : state.gates) circuit.append(std::move(g));
  span.attr("gates", circuit.size());
  span.attr("qubits", static_cast<long long>(circuit.num_qubits()));
  return circuit;
}

Circuit parse_file(const std::string& path, const ParseOptions& options) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("qasm: cannot open '" + path + "': " + std::strerror(errno));
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), path, options);
}

}  // namespace qxmap::qasm
