/// \file strings.hpp
/// Small string utilities shared by the QASM/RevLib front-ends and the
/// table-printing benchmark harnesses.

#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace qxmap {

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Splits on `sep`, dropping empty pieces.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits on any ASCII whitespace, dropping empty pieces.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view s);

/// Lower-cases ASCII letters.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Fixed-point rendering with the given number of decimals (no locale).
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Left-pads `s` with spaces to at least `width` characters.
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t width);

/// Right-pads `s` with spaces to at least `width` characters.
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t width);

/// Reads all of `text` as one base-10 number in [lo, hi] (std::from_chars).
/// Unlike std::stoi and friends it rejects trailing characters ("3s"),
/// leading whitespace or '+', a '-' for an unsigned T, and values T cannot
/// hold; NaN is never in range. Throws std::invalid_argument naming `what`.
/// Instantiated for int, long long, std::uint64_t and double.
template <typename T>
[[nodiscard]] T parse_number(std::string_view text, std::string_view what,
                             T lo = std::numeric_limits<T>::lowest(),
                             T hi = std::numeric_limits<T>::max());

}  // namespace qxmap
