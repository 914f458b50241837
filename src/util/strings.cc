#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace ps::strings {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t begin = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > begin) out.emplace_back(text.substr(begin, i - begin));
  }
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

std::optional<std::int64_t> parse_i64(std::string_view text) noexcept {
  text = trim(text);
  std::int64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_u64(std::string_view text, int base) noexcept {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value, base);
  if (ec != std::errc{} || ptr != last || text.empty()) return std::nullopt;
  return value;
}

std::optional<double> parse_f64(std::string_view text) noexcept {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  // std::from_chars<double> is available in libstdc++ 11+.
  double value = 0.0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::string format(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string with_commas(std::int64_t value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (value < 0) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

std::string human_duration_ms(std::int64_t ms) {
  bool negative = ms < 0;
  if (negative) ms = -ms;
  std::int64_t total_seconds = ms / 1000;
  std::int64_t hours = total_seconds / 3600;
  std::int64_t minutes = (total_seconds % 3600) / 60;
  std::int64_t seconds = total_seconds % 60;
  std::string out = negative ? "-" : "";
  if (hours > 0) {
    out += format("%lldh%02lldm%02llds", static_cast<long long>(hours),
                  static_cast<long long>(minutes), static_cast<long long>(seconds));
  } else if (minutes > 0) {
    out += format("%lldm%02llds", static_cast<long long>(minutes),
                  static_cast<long long>(seconds));
  } else {
    out += format("%llds", static_cast<long long>(seconds));
  }
  return out;
}

std::string percent(double ratio, int decimals) {
  return format("%.*f%%", decimals, ratio * 100.0);
}

}  // namespace ps::strings
