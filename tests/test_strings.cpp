#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace qxmap {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitDropsEmptyPieces) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",,", ','), (std::vector<std::string>{}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Strings, SplitWhitespace) {
  EXPECT_EQ(split_whitespace("  t3  a b\tc\n"), (std::vector<std::string>{"t3", "a", "b", "c"}));
  EXPECT_EQ(split_whitespace(""), (std::vector<std::string>{}));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("IBM QX4"), "ibm qx4");
  EXPECT_EQ(to_lower("already"), "already");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(1.25, 2), "1.25");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(Strings, ParseNumberReadsWholeNumbersInRange) {
  EXPECT_EQ(parse_number<int>("8", "n"), 8);
  EXPECT_EQ(parse_number<int>("-3", "n"), -3);
  EXPECT_EQ(parse_number<long long>("3000", "ms", 1, 5000), 3000);
  EXPECT_EQ(parse_number<long long>("5000", "ms", 1, 5000), 5000);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615", "seed"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_DOUBLE_EQ(parse_number<double>("2.5", "x"), 2.5);
  EXPECT_DOUBLE_EQ(parse_number<double>("1e1", "x"), 10.0);
}

TEST(Strings, ParseNumberRejectsPartialNumbers) {
  // std::stoi and friends read these as 3, 8 and 1.5.
  EXPECT_THROW((void)parse_number<long long>("3s", "ms"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<int>("8x", "n"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("1.5x", "x"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<int>("", "n"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<int>(" 8", "n"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<int>("8 ", "n"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<int>("+8", "n"), std::invalid_argument);
}

TEST(Strings, ParseNumberRejectsValuesOutOfRange) {
  // std::stoull wraps "-1" to 2^64 - 1.
  EXPECT_THROW((void)parse_number<std::uint64_t>("-1", "seed"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<int>("2147483648", "n"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<long long>("0", "ms", 1, 5000), std::invalid_argument);
  EXPECT_THROW((void)parse_number<long long>("5001", "ms", 1, 5000), std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("nan", "x"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("inf", "x"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("-0.5", "x", 0.0), std::invalid_argument);
}

TEST(Strings, ParseNumberNamesTheValueInItsMessage) {
  try {
    (void)parse_number<int>("5x", "--exact", 1, 8);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--exact: '5x' is not a number in [1, 8]");
  }
}

}  // namespace
}  // namespace qxmap
