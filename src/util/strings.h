// String helpers: splitting, trimming, case folding, numeric parsing and
// printf-style formatting (gcc 12 lacks <format>, so we ship a tiny typesafe
// substitute used across reports and benches).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ps::strings {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Splits on arbitrary whitespace runs, dropping empty fields.
std::vector<std::string> split_ws(std::string_view text);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view text) noexcept;

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// Strict full-string parses; nullopt on any trailing garbage.
std::optional<std::int64_t> parse_i64(std::string_view text) noexcept;
/// Unsigned, in `base`, over the whole of `text`: no sign, no whitespace,
/// nullopt on overflow.
std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       int base = 10) noexcept;
std::optional<double> parse_f64(std::string_view text) noexcept;

/// printf-style formatting into std::string (format checked by GCC).
[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...);

/// Fixed-point with thousands separators: 1924160 -> "1,924,160".
std::string with_commas(std::int64_t value);

/// Human duration "2h05m30s" for a millisecond count.
std::string human_duration_ms(std::int64_t ms);

/// Percentage "85.3%" from a ratio in [0,1].
std::string percent(double ratio, int decimals = 1);

}  // namespace ps::strings
