// The one command-line grammar of every binary (the ps-* tools,
// make_curie_month, the examples and the figure benches). There is one
// reader per value kind; each takes (flag, text) and returns the value or
// throws std::runtime_error naming the flag. Floats are finite, integers
// ranged and durations unit-safe by construction, so no caller re-checks
// a value after reading it. A binary lists its flags once, in a Flag table
// that both parses them and prints the usage; every main reports a thrown
// error as "<binary>: <message>" and exits 1.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "util/strings.h"

namespace ps::cli {

[[noreturn]] inline void refuse(std::string_view flag, std::string_view wants,
                                std::string_view text) {
  throw std::runtime_error(std::string(flag) + " wants " + std::string(wants) +
                           ", got \"" + std::string(text) + "\"");
}

/// Which finite floats a flag takes. No flag takes NaN or infinity.
enum class Sign { kAny, kNonNegative, kPositive };

inline double real(std::string_view flag, std::string_view text,
                   Sign sign = Sign::kAny) {
  std::optional<double> value = strings::parse_f64(text);
  if (!value || !std::isfinite(*value) ||
      (sign == Sign::kNonNegative && *value < 0.0) ||
      (sign == Sign::kPositive && *value <= 0.0)) {
    refuse(flag,
           sign == Sign::kAny           ? "a finite number"
           : sign == Sign::kNonNegative ? "a finite number >= 0"
                                        : "a finite number > 0",
           text);
  }
  return *value;
}

/// An integer in [lo, hi] (and in int64_t). The default range, every
/// non-negative value of `T`, is a count or size the caller's narrowing
/// cast can never wrap.
template <typename T = std::int64_t>
T integer(std::string_view flag, std::string_view text, T lo = 0,
          T hi = std::numeric_limits<T>::max()) {
  constexpr std::int64_t kTop = std::numeric_limits<std::int64_t>::max();
  std::optional<std::int64_t> value = strings::parse_i64(text);
  if (!value || std::cmp_less(*value, lo) || std::cmp_greater(*value, hi)) {
    refuse(flag,
           lo == 0 && hi == std::numeric_limits<T>::max()
               ? "a non-negative integer"
               : "an integer in " + std::to_string(lo) + ".." +
                     (std::cmp_less(hi, kTop) ? std::to_string(hi) : std::to_string(kTop)),
           text);
  }
  return static_cast<T>(*value);
}

/// Units a duration flag is converted by: its size in the finest unit the
/// program computes it in (ns for wall-clock deadlines, ms for sim::Time).
inline constexpr std::int64_t kNsPerMs = 1'000'000;
inline constexpr std::int64_t kNsPerSecond = 1'000'000'000;

/// A duration of at least `lo` in the flag's unit, small enough that its
/// product with `unit` (the largest factor the program multiplies it by)
/// fits int64_t.
inline std::int64_t duration(std::string_view flag, std::string_view text,
                             std::int64_t unit, std::int64_t lo = 0) {
  return integer<std::int64_t>(flag, text, lo,
                               std::numeric_limits<std::int64_t>::max() / unit);
}

inline core::Policy policy(std::string_view flag, std::string_view text) {
  std::optional<core::Policy> value = core::parse_policy(text);
  if (!value) refuse(flag, "none|shut|dvfs|mix|idle|auto", text);
  return *value;
}

/// One entry of a binary's single flag list: the flag, the placeholder of
/// its value (empty for a switch), its usage text ('\n' continues it on
/// the next line) and what it does with the value.
struct Flag {
  std::string_view name;
  std::string_view value;
  std::string_view help;
  std::function<void(std::string_view flag, const std::string& value)> apply;
};

/// Applies `args` through `flags`. A word that does not start with '-'
/// goes to `positional`; without one it is an error, as is an unknown
/// flag or a missing value.
inline void parse(const std::vector<std::string>& args, std::span<const Flag> flags,
                  const std::function<void(const std::string&)>& positional = {}) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags) {
      if (candidate.name == args[i]) flag = &candidate;
    }
    if (flag == nullptr) {
      if (!positional || args[i].starts_with('-')) {
        throw std::runtime_error("unknown option " + args[i]);
      }
      positional(args[i]);
    } else if (flag->value.empty()) {
      flag->apply(flag->name, "");
    } else if (i + 1 < args.size()) {
      flag->apply(flag->name, args[++i]);
    } else {
      throw std::runtime_error("missing value after " + args[i]);
    }
  }
}

/// "usage: <synopsis>", then one line per flag: the flag and its value
/// placeholder, then its help in a column.
inline std::string usage(std::string_view synopsis, std::span<const Flag> flags) {
  constexpr std::size_t kColumn = 32;
  std::string text = "usage: " + std::string(synopsis) + "\n";
  for (const Flag& flag : flags) {
    std::string line = "    " + std::string(flag.name);
    if (!flag.value.empty()) line += " " + std::string(flag.value);
    line.resize(std::max(kColumn, line.size() + 1), ' ');
    for (char c : flag.help) {
      line += c;
      if (c == '\n') line.append(kColumn, ' ');
    }
    text += line + "\n";
  }
  return text;
}

}  // namespace ps::cli
