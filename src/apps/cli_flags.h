// Flag-value readers shared by the command-line entry points (the ps-*
// tools and make_curie_month). Each takes the value after args[i],
// advances i past it, and throws std::runtime_error naming the flag when
// the value is missing or malformed; every main reports that as
// "<tool>: <message>" and exits 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace ps::cli {

inline std::string need_value(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size()) {
    throw std::runtime_error("missing value after " + args[i]);
  }
  return args[++i];
}

/// A signed integer, for the rare flag where a negative value means
/// something (ps-serve's --cap-start: negative centres the window).
inline std::int64_t need_i64(const std::vector<std::string>& args, std::size_t& i) {
  const std::string flag = args[i];
  auto value = strings::parse_i64(need_value(args, i));
  if (!value) throw std::runtime_error(flag + " wants an integer");
  return *value;
}

/// A count, size or period: a non-negative integer that fits `T`, so the
/// caller's narrowing cast can never wrap.
template <typename T = std::int64_t>
T need_count(const std::vector<std::string>& args, std::size_t& i) {
  const std::string flag = args[i];
  auto value = strings::parse_i64(need_value(args, i));
  if (!value || *value < 0 || std::cmp_greater(*value, std::numeric_limits<T>::max())) {
    throw std::runtime_error(flag + " wants a non-negative integer");
  }
  return static_cast<T>(*value);
}

inline double need_f64(const std::vector<std::string>& args, std::size_t& i) {
  const std::string flag = args[i];
  auto value = strings::parse_f64(need_value(args, i));
  if (!value) throw std::runtime_error(flag + " wants a number");
  return *value;
}

}  // namespace ps::cli
