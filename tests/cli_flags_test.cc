// The command-line grammar every binary reads its values through
// (apps/cli_flags.h): each reader accepts exactly the finite, in-range
// values of its kind and refuses everything else with an error naming the
// flag; the flag table parses in order and refuses unknown flags, missing
// values and stray words.
#include "apps/cli_flags.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace ps::cli {
namespace {

using Reader = std::function<std::string(std::string_view flag, std::string_view text)>;

std::string print(double value) { return strings::format("%g", value); }

template <typename T>
std::string print(T value) {
  return std::to_string(value);
}

const std::map<std::string, Reader>& readers() {
  static const std::map<std::string, Reader> kReaders = {
      {"real", [](auto f, auto t) { return print(real(f, t)); }},
      {"real>=0", [](auto f, auto t) { return print(real(f, t, Sign::kNonNegative)); }},
      {"real>0", [](auto f, auto t) { return print(real(f, t, Sign::kPositive)); }},
      {"count", [](auto f, auto t) { return print(integer(f, t)); }},
      {"int", [](auto f, auto t) { return print(integer<int>(f, t)); }},
      {"racks", [](auto f, auto t) { return print(integer<std::int32_t>(f, t, 1, 56)); }},
      {"weight", [](auto f, auto t) { return print(integer<std::uint64_t>(f, t, 1)); }},
      {"signed",
       [](auto f, auto t) {
         return print(integer<std::int64_t>(f, t, std::numeric_limits<std::int64_t>::min()));
       }},
      {"ms", [](auto f, auto t) { return print(duration(f, t, kNsPerMs)); }},
      {"seconds", [](auto f, auto t) { return print(duration(f, t, kNsPerSecond)); }},
      {"minutes", [](auto f, auto t) { return print(duration(f, t, sim::minutes(1), 1)); }},
      {"policy", [](auto f, auto t) { return std::string(core::to_string(policy(f, t))); }},
  };
  return kReaders;
}

struct Row {
  std::string reader;
  std::string text;
  std::optional<std::string> value;  ///< nullopt: refused
};

TEST(CliFlags, ReadersAcceptExactlyTheFiniteInRangeValues) {
  const std::optional<std::string> kRefused;
  const std::vector<Row> rows = {
      // Floats: finite only, whatever the sign bound.
      {"real", "nan", kRefused},
      {"real", "inf", kRefused},
      {"real", "-inf", kRefused},
      {"real", "1e309", kRefused},
      {"real", "12abc", kRefused},
      {"real", "", kRefused},
      {"real", "-0", "-0"},
      {"real", "-1.5", "-1.5"},
      {"real", "9223372036854775808", "9.22337e+18"},
      {"real", "1.7976931348623157e308", "1.79769e+308"},
      {"real>=0", "-0", "-0"},
      {"real>=0", "0", "0"},
      {"real>=0", "-1e-300", kRefused},
      {"real>=0", "nan", kRefused},
      {"real>=0", "inf", kRefused},
      {"real>0", "-0", kRefused},
      {"real>0", "0", kRefused},
      {"real>0", "1e-300", "1e-300"},
      {"real>0", "1e300", "1e+300"},
      {"real>0", "nan", kRefused},
      // Counts: every non-negative value of the type, nothing else.
      {"count", "0", "0"},
      {"count", "-0", "0"},
      {"count", "-1", kRefused},
      {"count", "9223372036854775807", "9223372036854775807"},
      {"count", "9223372036854775808", kRefused},
      {"count", "12abc", kRefused},
      {"count", "", kRefused},
      {"count", "nan", kRefused},
      {"count", "inf", kRefused},
      {"count", "1e309", kRefused},
      {"count", "1.5", kRefused},
      {"int", "2147483647", "2147483647"},
      {"int", "2147483648", kRefused},
      // Explicit ranges: both edges in, one past each out.
      {"racks", "0", kRefused},
      {"racks", "1", "1"},
      {"racks", "56", "56"},
      {"racks", "57", kRefused},
      {"weight", "0", kRefused},
      {"weight", "1", "1"},
      {"weight", "9223372036854775807", "9223372036854775807"},
      {"weight", "9223372036854775808", kRefused},
      {"signed", "-9223372036854775808", "-9223372036854775808"},
      {"signed", "-9223372036854775809", kRefused},
      {"signed", "9223372036854775807", "9223372036854775807"},
      // Durations: the product with the unit fits int64_t.
      {"ms", "0", "0"},
      {"ms", "-1", kRefused},
      {"ms", "9223372036854", "9223372036854"},
      {"ms", "9223372036855", kRefused},
      {"seconds", "9223372036", "9223372036"},
      {"seconds", "9223372037", kRefused},
      {"minutes", "0", kRefused},
      {"minutes", "1", "1"},
      {"minutes", "153722867280912", "153722867280912"},
      {"minutes", "153722867280913", kRefused},
      // Policies: the to_string names, any case.
      {"policy", "mix", "MIX"},
      {"policy", "SHUT", "SHUT"},
      {"policy", "Auto", "AUTO"},
      {"policy", "none", "None"},
      {"policy", "max", kRefused},
      {"policy", "", kRefused},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.reader + " \"" + row.text + "\"");
    const Reader& read = readers().at(row.reader);
    if (row.value) {
      EXPECT_EQ(read("--x", row.text), *row.value);
      continue;
    }
    try {
      const std::string value = read("--x", row.text);
      ADD_FAILURE() << "accepted as " << value;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_EQ(message.rfind("--x wants ", 0), 0u) << message;
      EXPECT_NE(message.find("\"" + row.text + "\""), std::string::npos) << message;
    }
  }
}

TEST(CliFlags, TheFlagTableParsesInOrderAndRefusesStrayWords) {
  std::vector<std::string> applied;
  std::vector<std::string> words;
  const Flag flags[] = {
      {"--n", "N", "a count",
       [&](auto f, auto& v) { applied.push_back(std::string(f) + "=" + v); }},
      {"--on", "", "a switch", [&](auto f, auto&) { applied.emplace_back(f); }},
  };
  auto positional = [&](const std::string& word) { words.push_back(word); };
  parse({"--n", "1", "file", "--on", "--n", "-2"}, flags, positional);
  EXPECT_EQ(applied, (std::vector<std::string>{"--n=1", "--on", "--n=-2"}));
  EXPECT_EQ(words, std::vector<std::string>{"file"});

  EXPECT_THROW(parse({"--m"}, flags, positional), std::runtime_error);  // unknown
  EXPECT_THROW(parse({"-n"}, flags, positional), std::runtime_error);   // unknown
  EXPECT_THROW(parse({"--n"}, flags, positional), std::runtime_error);  // no value
  EXPECT_THROW(parse({"file"}, flags), std::runtime_error);             // no positionals

  EXPECT_EQ(usage("tool [flags]", flags),
            "usage: tool [flags]\n"
            "    --n N                       a count\n"
            "    --on                        a switch\n");
}

}  // namespace
}  // namespace ps::cli
