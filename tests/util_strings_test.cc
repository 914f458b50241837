#include "util/strings.h"

#include <gtest/gtest.h>

namespace ps::strings {
namespace {

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitWs, DropsEmptyRuns) {
  EXPECT_EQ(split_ws("  a \t b\nc  "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(Trim, RemovesBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(ToLower, AsciiOnly) { EXPECT_EQ(to_lower("AbC-12"), "abc-12"); }

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("powercap", "power"));
  EXPECT_FALSE(starts_with("power", "powercap"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(ParseI64, StrictFullString) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("  -7 "), -7);
  EXPECT_FALSE(parse_i64("42x").has_value());
  EXPECT_FALSE(parse_i64("").has_value());
  EXPECT_FALSE(parse_i64("1.5").has_value());
}

TEST(ParseU64, StrictUnsignedFullString) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);  // full range
  EXPECT_EQ(parse_u64("00000007"), 7u);  // zero-padded spool sequences
  EXPECT_EQ(parse_u64("ff", 16), 255u);
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // overflow
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64(" 1").has_value());
  EXPECT_FALSE(parse_u64("1 ").has_value());
  EXPECT_FALSE(parse_u64("12x").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("fg", 16).has_value());
}

TEST(ParseF64, StrictFullString) {
  EXPECT_DOUBLE_EQ(parse_f64("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_f64("-1e3").value(), -1000.0);
  EXPECT_FALSE(parse_f64("3.25 watts").has_value());
  EXPECT_FALSE(parse_f64("").has_value());
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.005), "1.00");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(WithCommas, GroupsOfThree) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1924160), "1,924,160");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(HumanDuration, Formats) {
  EXPECT_EQ(human_duration_ms(5000), "5s");
  EXPECT_EQ(human_duration_ms(65000), "1m05s");
  EXPECT_EQ(human_duration_ms(3600000 * 2 + 5 * 60000 + 30000), "2h05m30s");
  EXPECT_EQ(human_duration_ms(-5000), "-5s");
}

TEST(Percent, Rounds) {
  EXPECT_EQ(percent(0.853), "85.3%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

}  // namespace
}  // namespace ps::strings
