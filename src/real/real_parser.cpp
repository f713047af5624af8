#include "real/real_parser.hpp"

#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/strings.hpp"
#include "real/mct_decomposer.hpp"

namespace qxmap::real {

namespace {

struct ParserState {
  int num_vars = -1;
  std::map<std::string, int> var_index;
  bool in_body = false;
  bool ended = false;
};

/// A decimal integer field (`.numvars`, a gate arity, an x<idx> operand)
/// that must fit in an int.
int parse_int(const std::string& text, const std::string& what, int line_no) {
  int value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::result_out_of_range) {
    throw RealParseError(what + " '" + text + "' is out of range", line_no);
  }
  if (ec != std::errc{} || end != last) {
    throw RealParseError(what + " '" + text + "' is not an integer", line_no);
  }
  return value;
}

int resolve_line(const ParserState& st, const std::string& token, int line_no) {
  // Operands may be variable names or (in some RevLib dialects) x<idx>.
  if (const auto it = st.var_index.find(token); it != st.var_index.end()) {
    return it->second;
  }
  if (token.size() >= 2 && token[0] == 'x') {
    const std::string idx = token.substr(1);
    if (!idx.empty() && idx.find_first_not_of("0123456789") == std::string::npos) {
      const int i = parse_int(idx, "operand index", line_no);
      if (i >= 0 && i < st.num_vars) return i;
    }
  }
  throw RealParseError("unknown variable '" + token + "'", line_no);
}

void handle_gate(ParserState& st, Circuit& circuit, RealFile& out,
                 const std::vector<std::string>& tokens, int line_no) {
  const std::string& mnemonic = tokens[0];
  const char family = mnemonic[0];
  if (family != 't' && family != 'f') {
    throw RealParseError("unsupported gate family '" + mnemonic + "' (only t/f supported)", line_no);
  }
  const std::string size_str = mnemonic.substr(1);
  if (size_str.empty() || size_str.find_first_not_of("0123456789") != std::string::npos) {
    throw RealParseError("malformed gate mnemonic '" + mnemonic + "'", line_no);
  }
  const int arity = parse_int(size_str, "gate size", line_no);
  if (static_cast<int>(tokens.size()) - 1 != arity) {
    throw RealParseError("gate '" + mnemonic + "' expects " + std::to_string(arity) + " operands",
                         line_no);
  }
  std::vector<int> lines;
  lines.reserve(static_cast<std::size_t>(arity));
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    lines.push_back(resolve_line(st, tokens[i], line_no));
  }
  ++out.num_mct_gates;
  if (family == 't') {
    const int target = lines.back();
    lines.pop_back();
    out.max_controls = std::max(out.max_controls, static_cast<int>(lines.size()));
    append_mct(circuit, lines, target);
  } else {
    if (arity < 2) throw RealParseError("fredkin gate needs at least 2 operands", line_no);
    const int b = lines.back();
    lines.pop_back();
    const int a = lines.back();
    lines.pop_back();
    out.max_controls = std::max(out.max_controls, static_cast<int>(lines.size()) + 1);
    append_fredkin(circuit, lines, a, b);
  }
}

}  // namespace

RealFile parse(std::string_view source, std::string name) {
  ParserState st;
  Circuit circuit;
  RealFile out;
  bool circuit_created = false;

  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const std::size_t nl = source.find('\n', pos);
    const std::string_view raw =
        source.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = (nl == std::string_view::npos) ? source.size() + 1 : nl + 1;
    ++line_no;

    std::string_view line = trim(raw);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = trim(line.substr(0, hash));
    }
    if (line.empty()) continue;

    const auto tokens = split_whitespace(line);
    const std::string head = to_lower(tokens[0]);

    if (head == ".version" || head == ".inputs" || head == ".outputs" ||
        head == ".constants" || head == ".garbage" || head == ".inputbus" ||
        head == ".outputbus" || head == ".define" || head == ".module") {
      continue;  // semantic metadata, irrelevant for mapping
    }
    if (head == ".numvars") {
      if (tokens.size() != 2) throw RealParseError(".numvars expects one argument", line_no);
      st.num_vars = parse_int(tokens[1], ".numvars", line_no);
      if (st.num_vars <= 0) throw RealParseError(".numvars must be positive", line_no);
      continue;
    }
    if (head == ".variables") {
      if (st.num_vars < 0) throw RealParseError(".variables before .numvars", line_no);
      if (static_cast<int>(tokens.size()) - 1 != st.num_vars) {
        throw RealParseError(".variables count does not match .numvars", line_no);
      }
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        st.var_index[tokens[i]] = static_cast<int>(i) - 1;
      }
      continue;
    }
    if (head == ".begin") {
      if (st.num_vars < 0) throw RealParseError(".begin before .numvars", line_no);
      st.in_body = true;
      circuit = Circuit(st.num_vars, name);
      circuit_created = true;
      continue;
    }
    if (head == ".end") {
      st.ended = true;
      break;
    }
    if (!st.in_body) {
      throw RealParseError("unexpected content before .begin: '" + std::string(line) + "'", line_no);
    }
    handle_gate(st, circuit, out, tokens, line_no);
  }

  if (!circuit_created) throw RealParseError("no .begin section found", line_no);
  if (!st.ended) throw RealParseError("missing .end", line_no);
  out.circuit = std::move(circuit);
  return out;
}

RealFile parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open .real file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), path);
}

}  // namespace qxmap::real
