#include "arch/coupling_json.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace qxmap::arch {

namespace {

/// The source line `line` (1-based) rendered with a caret under `column`
/// (same rendering as qasm::ParseError excerpts).
std::string line_excerpt(std::string_view src, int line, int column) {
  int cur = 1;
  std::size_t start = 0;
  while (cur < line && start < src.size()) {
    if (src[start] == '\n') ++cur;
    ++start;
  }
  std::size_t end = start;
  while (end < src.size() && src[end] != '\n') ++end;
  const std::string text(src.substr(start, end - start));
  std::string caret(static_cast<std::size_t>(column > 0 ? column - 1 : 0), ' ');
  return "  " + text + "\n  " + caret + '^';
}

/// Minimal JSON value tree; every node remembers where it started so schema
/// errors can point at the offending token.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  struct Member;  // key + value + key position; defined below (needs a
                  // complete JsonValue)

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  bool integral = false;      ///< number had no '.' or 'e'
  long long integer = 0;      ///< valid when integral; saturates at the long long range
  std::string text;           ///< for Kind::String
  std::vector<JsonValue> items;
  std::vector<Member> members;
  int line = 1;
  int column = 1;

  [[nodiscard]] const char* kind_name() const {
    switch (kind) {
      case Kind::Null: return "null";
      case Kind::Bool: return "a boolean";
      case Kind::Number: return "a number";
      case Kind::String: return "a string";
      case Kind::Array: return "an array";
      case Kind::Object: return "an object";
    }
    return "?";
  }
};

struct JsonValue::Member {
  std::string key;
  int key_line = 1;
  int key_column = 1;
  JsonValue value;
};

/// Recursive-descent JSON reader with 1-based line/column tracking. The
/// subset is exactly what the schema needs: objects, arrays, strings (with
/// the common escapes), numbers, true/false/null. Trailing content after the
/// root value is an error.
class JsonReader {
 public:
  JsonReader(std::string_view src, std::string file) : src_(src), file_(std::move(file)) {}

  JsonValue parse_document() {
    skip_ws();
    if (at_end()) fail("empty document (expected a JSON object)", line_, col_);
    JsonValue root = parse_value();
    skip_ws();
    if (!at_end()) fail("trailing content after the top-level value", line_, col_);
    return root;
  }

  [[noreturn]] void fail(const std::string& message, int line, int column) const {
    throw CouplingJsonError(message, line, column, line_excerpt(src_, line, column), file_);
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= src_.size(); }
  [[nodiscard]] char peek() const { return src_[pos_]; }

  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
      } else {
        break;
      }
    }
  }

  void expect(char c, const char* what) {
    if (at_end() || peek() != c) {
      fail(std::string("expected ") + what, line_, col_);
    }
    advance();
  }

  JsonValue parse_value() {
    if (at_end()) fail("unexpected end of input", line_, col_);
    JsonValue v;
    v.line = line_;
    v.column = col_;
    const char c = peek();
    if (c == '{') {
      parse_object(v);
    } else if (c == '[') {
      parse_array(v);
    } else if (c == '"') {
      v.kind = JsonValue::Kind::String;
      v.text = parse_string();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      parse_number(v);
    } else if (src_.substr(pos_, 4) == "true") {
      v.kind = JsonValue::Kind::Bool;
      v.boolean = true;
      for (int i = 0; i < 4; ++i) advance();
    } else if (src_.substr(pos_, 5) == "false") {
      v.kind = JsonValue::Kind::Bool;
      v.boolean = false;
      for (int i = 0; i < 5; ++i) advance();
    } else if (src_.substr(pos_, 4) == "null") {
      v.kind = JsonValue::Kind::Null;
      for (int i = 0; i < 4; ++i) advance();
    } else {
      fail(std::string("unexpected character '") + c + "'", line_, col_);
    }
    return v;
  }

  void parse_object(JsonValue& v) {
    v.kind = JsonValue::Kind::Object;
    advance();  // '{'
    skip_ws();
    if (!at_end() && peek() == '}') {
      advance();
      return;
    }
    while (true) {
      skip_ws();
      JsonValue::Member member;
      member.key_line = line_;
      member.key_column = col_;
      if (at_end() || peek() != '"') fail("expected '\"' to begin an object key", line_, col_);
      member.key = parse_string();
      for (const auto& prior : v.members) {
        if (prior.key == member.key) {
          fail("duplicate key \"" + member.key + "\"", member.key_line, member.key_column);
        }
      }
      skip_ws();
      expect(':', "':' after object key");
      skip_ws();
      member.value = parse_value();
      v.members.push_back(std::move(member));
      skip_ws();
      if (at_end()) fail("unterminated object (expected ',' or '}')", line_, col_);
      if (peek() == ',') {
        advance();
        continue;
      }
      expect('}', "',' or '}' in object");
      return;
    }
  }

  void parse_array(JsonValue& v) {
    v.kind = JsonValue::Kind::Array;
    advance();  // '['
    skip_ws();
    if (!at_end() && peek() == ']') {
      advance();
      return;
    }
    while (true) {
      skip_ws();
      v.items.push_back(parse_value());
      skip_ws();
      if (at_end()) fail("unterminated array (expected ',' or ']')", line_, col_);
      if (peek() == ',') {
        advance();
        continue;
      }
      expect(']', "',' or ']' in array");
      return;
    }
  }

  std::string parse_string() {
    advance();  // opening '"'
    std::string out;
    while (true) {
      if (at_end()) fail("unterminated string", line_, col_);
      const char c = advance();
      if (c == '"') return out;
      if (c == '\n') fail("raw newline in string", line_ - 1, col_);
      if (c == '\\') {
        if (at_end()) fail("unterminated escape sequence", line_, col_);
        const char e = advance();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          default:
            fail(std::string("unsupported escape '\\") + e + "'", line_, col_ - 2);
        }
      } else {
        out += c;
      }
    }
  }

  void parse_number(JsonValue& v) {
    v.kind = JsonValue::Kind::Number;
    const std::size_t start = pos_;
    const int start_line = line_;
    const int start_col = col_;
    bool has_fraction = false;
    if (!at_end() && peek() == '-') advance();
    while (!at_end() && peek() >= '0' && peek() <= '9') advance();
    if (!at_end() && peek() == '.') {
      has_fraction = true;
      advance();
      while (!at_end() && peek() >= '0' && peek() <= '9') advance();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      has_fraction = true;
      advance();
      if (!at_end() && (peek() == '+' || peek() == '-')) advance();
      while (!at_end() && peek() >= '0' && peek() <= '9') advance();
    }
    const std::string token(src_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || token == "-") {
      fail("malformed number '" + token + "'", start_line, start_col);
    }
    if (!has_fraction) {
      v.integral = true;
      v.integer = std::strtoll(token.c_str(), nullptr, 10);
    }
  }

  std::string_view src_;
  std::string file_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

/// Schema pass: walks the parsed tree, reporting violations with the JSON
/// path of the offending node ("edges[3].error") at that node's position.
class SchemaReader {
 public:
  SchemaReader(const JsonReader& reader) : reader_(reader) {}

  CouplingMap load(const JsonValue& root, std::string fallback_name) {
    if (root.kind != JsonValue::Kind::Object) {
      fail(root, std::string("top-level value must be an object, got ") + root.kind_name());
    }
    const JsonValue* qubits_node = nullptr;
    const JsonValue* edges_node = nullptr;
    const JsonValue* single_node = nullptr;
    const JsonValue* readout_node = nullptr;
    std::string name = std::move(fallback_name);
    bool directed = false;
    for (const auto& member : root.members) {
      if (member.key == "name") {
        require(member.value, JsonValue::Kind::String, "name");
        name = member.value.text;
      } else if (member.key == "qubits") {
        qubits_node = &member.value;
      } else if (member.key == "directed") {
        require(member.value, JsonValue::Kind::Bool, "directed");
        directed = member.value.boolean;
      } else if (member.key == "edges") {
        edges_node = &member.value;
      } else if (member.key == "single_qubit_errors") {
        single_node = &member.value;
      } else if (member.key == "readout_errors") {
        readout_node = &member.value;
      } else {
        reader_.fail("unknown field \"" + member.key +
                         "\" (expected name, qubits, directed, edges, "
                         "single_qubit_errors, readout_errors)",
                     member.key_line, member.key_column);
      }
    }
    if (qubits_node == nullptr) fail(root, "missing required field \"qubits\"");
    const int m = read_qubits(*qubits_node);
    if (edges_node == nullptr) fail(root, "missing required field \"edges\"");

    std::vector<std::pair<int, int>> edges;
    ErrorRates rates;
    read_edges(*edges_node, m, directed, edges, rates);
    if (single_node != nullptr) {
      rates.single_qubit = read_rate_array(*single_node, m, "single_qubit_errors");
    }
    if (readout_node != nullptr) {
      rates.readout = read_rate_array(*readout_node, m, "readout_errors");
    }

    if (name.empty()) name = "json";  // anonymous documents still get a label
    CouplingMap cm(m, std::move(edges), std::move(name));
    if (!rates.empty()) cm.set_error_rates(std::move(rates));
    return cm;
  }

 private:
  [[noreturn]] void fail(const JsonValue& at, const std::string& message) const {
    reader_.fail(message, at.line, at.column);
  }

  void require(const JsonValue& v, JsonValue::Kind kind, const std::string& path) const {
    if (v.kind == kind) return;
    const char* want = kind == JsonValue::Kind::String   ? "a string"
                       : kind == JsonValue::Kind::Bool   ? "a boolean"
                       : kind == JsonValue::Kind::Number ? "a number"
                       : kind == JsonValue::Kind::Array  ? "an array"
                                                         : "an object";
    fail(v, path + ": expected " + want + ", got " + v.kind_name());
  }

  int read_int(const JsonValue& v, const std::string& path) const {
    require(v, JsonValue::Kind::Number, path);
    if (!v.integral) fail(v, path + ": expected an integer, got " + std::to_string(v.number));
    if (v.integer < std::numeric_limits<int>::min() ||
        v.integer > std::numeric_limits<int>::max()) {
      fail(v, path + ": integer out of range for int");
    }
    return static_cast<int>(v.integer);
  }

  int read_qubits(const JsonValue& v) const {
    const int m = read_int(v, "qubits");
    if (m <= 0) fail(v, "qubits: must be positive, got " + std::to_string(m));
    if (m > 4096) fail(v, "qubits: implausibly large (" + std::to_string(m) + " > 4096)");
    return m;
  }

  int read_endpoint(const JsonValue& v, int m, const std::string& path) const {
    const int q = read_int(v, path);
    if (q < 0 || q >= m) {
      fail(v, path + ": qubit index " + std::to_string(q) + " out of range for " +
                  std::to_string(m) + " qubits");
    }
    return q;
  }

  double read_rate(const JsonValue& v, const std::string& path) const {
    require(v, JsonValue::Kind::Number, path);
    if (!(v.number >= 0.0) || v.number >= 1.0) {
      std::ostringstream os;
      os << v.number;
      fail(v, path + ": error rate must lie in [0, 1), got " + os.str());
    }
    return v.number;
  }

  std::vector<double> read_rate_array(const JsonValue& v, int m, const std::string& path) const {
    require(v, JsonValue::Kind::Array, path);
    if (v.items.size() != static_cast<std::size_t>(m)) {
      fail(v, path + ": expected one entry per qubit (" + std::to_string(m) + "), got " +
                  std::to_string(v.items.size()));
    }
    std::vector<double> out;
    out.reserve(v.items.size());
    for (std::size_t i = 0; i < v.items.size(); ++i) {
      out.push_back(read_rate(v.items[i], path + "[" + std::to_string(i) + "]"));
    }
    return out;
  }

  void read_edges(const JsonValue& v, int m, bool directed,
                  std::vector<std::pair<int, int>>& edges, ErrorRates& rates) const {
    require(v, JsonValue::Kind::Array, "edges");
    if (v.items.empty()) fail(v, "edges: must not be empty");
    std::map<std::pair<int, int>, std::size_t> seen;  // normalized edge → first index
    for (std::size_t i = 0; i < v.items.size(); ++i) {
      const JsonValue& e = v.items[i];
      const std::string path = "edges[" + std::to_string(i) + "]";
      int control = -1;
      int target = -1;
      bool has_error = false;
      double error = 0.0;
      if (e.kind == JsonValue::Kind::Array) {
        if (e.items.size() != 2) {
          fail(e, path + ": expected a [control, target] pair, got " +
                      std::to_string(e.items.size()) + " entries");
        }
        control = read_endpoint(e.items[0], m, path + "[0]");
        target = read_endpoint(e.items[1], m, path + "[1]");
      } else if (e.kind == JsonValue::Kind::Object) {
        const JsonValue* control_node = nullptr;
        const JsonValue* target_node = nullptr;
        for (const auto& member : e.members) {
          if (member.key == "control") {
            control_node = &member.value;
          } else if (member.key == "target") {
            target_node = &member.value;
          } else if (member.key == "error") {
            has_error = true;
            error = read_rate(member.value, path + ".error");
          } else {
            reader_.fail(path + ": unknown field \"" + member.key +
                             "\" (expected control, target, error)",
                         member.key_line, member.key_column);
          }
        }
        if (control_node == nullptr) fail(e, path + ": missing required field \"control\"");
        if (target_node == nullptr) fail(e, path + ": missing required field \"target\"");
        control = read_endpoint(*control_node, m, path + ".control");
        target = read_endpoint(*target_node, m, path + ".target");
      } else {
        fail(e, path + ": expected a [control, target] pair or an object, got " +
                    std::string(e.kind_name()));
      }
      if (control == target) {
        fail(e, path + ": self-loop on qubit " + std::to_string(control));
      }
      const std::pair<int, int> normalized =
          directed ? std::pair<int, int>{control, target}
                   : std::pair<int, int>{std::min(control, target), std::max(control, target)};
      if (const auto it = seen.find(normalized); it != seen.end()) {
        fail(e, path + ": duplicate edge (" + std::to_string(control) + "," +
                    std::to_string(target) + "), first seen at edges[" +
                    std::to_string(it->second) + "]");
      }
      seen.emplace(normalized, i);
      edges.emplace_back(control, target);
      if (!directed) edges.emplace_back(target, control);
      if (has_error) {
        rates.cnot[{control, target}] = error;
        if (!directed) rates.cnot[{target, control}] = error;
      }
    }
  }

  const JsonReader& reader_;
};

/// "dir/device.json" → "device".
std::string file_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem.resize(dot);
  return stem;
}

}  // namespace

CouplingMap load_coupling_json(std::string_view text, std::string fallback_name,
                               const std::string& file) {
  JsonReader reader(text, file);
  const JsonValue root = reader.parse_document();
  return SchemaReader(reader).load(root, std::move(fallback_name));
}

CouplingMap load_coupling_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_coupling_json_file: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_coupling_json(buffer.str(), file_stem(path), path);
}

CouplingMap CouplingMap::from_json(std::string_view text, std::string fallback_name) {
  return load_coupling_json(text, std::move(fallback_name));
}

CouplingMap CouplingMap::from_json_file(const std::string& path) {
  return load_coupling_json_file(path);
}

}  // namespace qxmap::arch
