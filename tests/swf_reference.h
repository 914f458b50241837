// Reference SWF line parser, the direct way: a first pass tokenizes the
// line with five whitespace compares per byte, then every used field goes
// through std::from_chars (with a double fallback for fractions and
// exponents). swf::parse_line must decode every line to the same Record,
// or throw the same message, as this one. The one change from the
// original tokenizer is the millisecond range check on fields 2, 4 and 9,
// which the library gained with its fast path.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/time.h"
#include "workload/swf.h"

namespace ps::workload::swf::reference {

[[noreturn]] inline void fail(std::size_t line_number, const std::string& what) {
  throw std::runtime_error("swf: " + what + " at line " + std::to_string(line_number));
}

inline std::int64_t field_i64(std::string_view token, std::size_t index,
                              std::size_t line_number) {
  std::int64_t value = 0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc{} && ptr == last) return value;
  if (ec == std::errc::result_out_of_range) {
    fail(line_number, "numeric field " + std::to_string(index + 1) + " out of range");
  }
  double as_double = 0.0;
  auto [dptr, dec] = std::from_chars(first, last, as_double);
  if (dec == std::errc::result_out_of_range ||
      (dec == std::errc{} && dptr == last &&
       (as_double >= 9223372036854775808.0 || as_double < -9223372036854775808.0))) {
    fail(line_number, "numeric field " + std::to_string(index + 1) + " out of range");
  }
  if (dec != std::errc{} || dptr != last || std::isnan(as_double)) {
    fail(line_number, "bad numeric field " + std::to_string(index + 1));
  }
  return static_cast<std::int64_t>(as_double);
}

inline bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v';
}

inline sim::Time checked_seconds(std::int64_t value, std::size_t field,
                                 std::size_t line_number) {
  if (value > sim::kTimeMax / 1000) {
    fail(line_number, "numeric field " + std::to_string(field + 1) + " out of range");
  }
  return sim::seconds(value);
}

inline bool parse_line(std::string_view line, std::size_t line_number, Record& out) {
  constexpr std::size_t kSwfFields = 18;
  std::size_t begins[kSwfFields];
  std::size_t ends[kSwfFields];
  std::size_t nfields = 0;
  std::size_t i = 0;
  const std::size_t n = line.size();
  while (i < n && is_ws(line[i])) ++i;
  if (i == n) return false;
  if (line[i] == ';') return false;
  while (i < n) {
    std::size_t begin = i;
    while (i < n && !is_ws(line[i])) ++i;
    if (nfields < kSwfFields) {
      begins[nfields] = begin;
      ends[nfields] = i;
    }
    ++nfields;
    while (i < n && is_ws(line[i])) ++i;
  }
  if (nfields < kSwfFields) {
    fail(line_number, "expected 18 fields, got " + std::to_string(nfields));
  }
  auto field = [&](std::size_t k) {
    return field_i64(line.substr(begins[k], ends[k] - begins[k]), k, line_number);
  };
  std::int64_t job_number = field(0);
  std::int64_t submit_s = field(1);
  std::int64_t run_s = field(3);
  std::int64_t allocated = field(4);
  std::int64_t requested = field(7);
  std::int64_t requested_s = field(8);
  std::int64_t status = field(10);
  std::int64_t user_id = field(11);

  JobRequest& job = out.job;
  job.id = job_number;
  job.submit_time = checked_seconds(std::max<std::int64_t>(submit_s, 0), 1, line_number);
  job.base_runtime = checked_seconds(std::max<std::int64_t>(run_s, 0), 3, line_number);
  std::int64_t cores = requested > 0 ? requested : allocated;
  job.requested_cores = std::max<std::int64_t>(cores, 1);
  job.requested_walltime = requested_s > 0 ? checked_seconds(requested_s, 8, line_number)
                                           : sim::seconds(std::max<std::int64_t>(run_s, 1));
  job.user = static_cast<std::int32_t>(user_id > 0 ? user_id : 0);
  job.app.clear();
  out.status = status;
  return true;
}

}  // namespace ps::workload::swf::reference
