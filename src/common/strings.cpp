#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace qxmap {

namespace {
bool is_space(char c) noexcept { return std::isspace(static_cast<unsigned char>(c)) != 0; }
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_whitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out += std::string(width - out.size(), ' ');
  return out;
}

template <typename T>
T parse_number(std::string_view text, std::string_view what, T lo, T hi) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || !(value >= lo && value <= hi)) {
    std::ostringstream msg;
    msg << what << ": '" << text << "' is not a number in [" << lo << ", " << hi << "]";
    throw std::invalid_argument(msg.str());
  }
  return value;
}

template int parse_number(std::string_view, std::string_view, int, int);
template long long parse_number(std::string_view, std::string_view, long long, long long);
template std::uint64_t parse_number(std::string_view, std::string_view, std::uint64_t,
                                    std::uint64_t);
template double parse_number(std::string_view, std::string_view, double, double);

}  // namespace qxmap
