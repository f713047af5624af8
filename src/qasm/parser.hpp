/// \file parser.hpp
/// Recursive-descent parser for OpenQASM 2.0.
///
/// The front-end accepts the full OpenQASM 2.0 language as used by the IBM
/// QX benchmark suites (see docs/qasm-support.md for the construct-by-
/// construct support matrix):
///
///  * `OPENQASM 2.0;` header (optional, so bare gate lists parse too);
///  * `include "qelib1.inc";` resolved against a bundled standard library;
///    other includes are resolved relative to the including file and
///    `ParseOptions::include_paths`;
///  * `qreg`/`creg` declarations (multiple qregs are flattened into one
///    index space in declaration order);
///  * the spec builtins `U` (as u3) and `CX`, plus the qelib1 primitive
///    gates (id x y z h s sdg t tdg rx ry rz u1 u2 u3
///    cx swap ccx) recognised natively — `ccx` is decomposed into the
///    textbook Clifford+T network (2 H, 7 T/Tdg, 6 CX) since QX
///    architectures only execute U + CNOT — and the remaining qelib1 gates
///    (cz, cy, ch, crz, cu1, cu3, cswap, crx, cry, rxx, rzz, sx, sxdg, u,
///    p, u0) provided as bundled macro definitions;
///  * user-defined `gate name(params) qargs { … }` declarations, macro-
///    expanded recursively into the U/CX IR at each call site, with arity
///    checking, defined-before-use enforcement (which rules out definition
///    cycles) and an expansion-depth guard;
///  * `opaque` declarations (accepted; *applying* an opaque gate is an
///    error since it has no definition to expand);
///  * parameter expressions over numbers, `pi`, formal parameters,
///    `+ - * / ^`, unary minus, `sin/cos/tan/exp/ln/sqrt` and parentheses;
///  * `if (creg == n) op;` classical conditionals, lowered onto the
///    `Gate::condition` field of every elementary gate `op` expands to;
///  * `barrier`, `measure a -> c;`, and whole-register broadcast
///    (`h q;`, `measure q -> c;`, `cx a, b;` on same-sized registers).
///
/// `reset` is the one OpenQASM 2.0 statement with no IR representation; it
/// is rejected with a ParseError.
///
/// Errors carry the 1-based line/column plus a source excerpt with a caret.

#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ir/circuit.hpp"

namespace qxmap::qasm {

/// Front-end configuration.
struct ParseOptions {
  /// Directories searched (in order) for `include` files after the
  /// directory of the including file. `qelib1.inc` never hits the
  /// filesystem — a bundled copy is used.
  std::vector<std::string> include_paths;
  /// When false, non-bundled includes are skipped instead of resolved
  /// (the pre-1.1 behavior; useful for sources whose includes only define
  /// gates that are never applied).
  bool resolve_includes = true;
  /// Maximum nesting depth of custom-gate macro expansion. Definition
  /// cycles are already impossible (gates must be defined before use); this
  /// guards against pathological definition chains.
  int max_expansion_depth = 64;
  /// Maximum number of gates one source may expand to, counting every
  /// register broadcast and custom-gate body. A statement that would pass
  /// it is rejected before any of its gates is emitted, so a tiny source
  /// (a 2e9-qubit broadcast, or a chain of gates each applying the previous
  /// one twice) fails fast instead of exhausting memory.
  std::size_t max_gates = std::size_t{1} << 22;
};

/// Error raised on syntactically or semantically invalid input. Carries the
/// 1-based source location; what() additionally shows the offending source
/// line with a caret under the error column.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, int line, int column, const std::string& excerpt = {},
             const std::string& file = {})
      : std::runtime_error("qasm parse error at " + (file.empty() ? "" : file + ":") +
                           std::to_string(line) + ':' + std::to_string(column) + ": " + message +
                           (excerpt.empty() ? "" : "\n" + excerpt)),
        line_(line),
        column_(column) {}

  [[nodiscard]] int line() const noexcept { return line_; }
  [[nodiscard]] int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

/// Parses QASM source text into a Circuit. The circuit's qubit count is the
/// total size of all qregs; its name is taken from `name` (e.g. a filename).
/// \throws LexError / ParseError on invalid input.
[[nodiscard]] Circuit parse(std::string_view source, std::string name = {},
                            const ParseOptions& options = {});

/// Reads and parses a `.qasm` file. Includes are resolved relative to the
/// file's directory first, then `options.include_paths`.
/// \throws std::runtime_error (with the offending path and the OS reason)
///         if the file cannot be read; LexError / ParseError on invalid
///         input.
[[nodiscard]] Circuit parse_file(const std::string& path, const ParseOptions& options = {});

}  // namespace qxmap::qasm
