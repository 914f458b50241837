#include "workload/swf.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace ps::workload::swf {

namespace {

[[noreturn]] void fail(std::size_t line_number, const std::string& what) {
  throw std::runtime_error("swf: " + what + " at line " + std::to_string(line_number));
}

/// Decodes SWF field `index` (0-based) as int64. SWF allows fractional
/// seconds in time fields, so a token that is not a plain integer falls
/// back to a full-consume double parse and truncates. Overflow is an error
/// naming the field and line, never a silent wrap or truncation.
std::int64_t field_i64(std::string_view token, std::size_t index,
                       std::size_t line_number) {
  std::int64_t value = 0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc{} && ptr == last) return value;
  if (ec == std::errc::result_out_of_range) {
    fail(line_number, "numeric field " + std::to_string(index + 1) + " out of range");
  }
  // Fractional (or exponent-form) seconds: accept and truncate.
  double as_double = 0.0;
  auto [dptr, dec] = std::from_chars(first, last, as_double);
  // 2^63 bounds: the largest double below 2^63 still fits int64, so the
  // truncating cast below is always defined once this check passes.
  if (dec == std::errc::result_out_of_range ||
      (dec == std::errc{} && dptr == last &&
       (as_double >= 9223372036854775808.0 || as_double < -9223372036854775808.0))) {
    fail(line_number, "numeric field " + std::to_string(index + 1) + " out of range");
  }
  // NaN fails both bound checks above; it must not reach the cast (UB).
  if (dec != std::errc{} || dptr != last || std::isnan(as_double)) {
    fail(line_number, "bad numeric field " + std::to_string(index + 1));
  }
  return static_cast<std::int64_t>(as_double);
}

constexpr std::size_t kSwfFields = 18;

bool is_ws(char c) noexcept { return c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v'; }

}  // namespace

bool parse_line(std::string_view line, std::size_t line_number, Record& out) {
  // In-place whitespace tokenizer: no per-line vector, no per-field string.
  // Field bounds rather than string_views: an array of string_views is
  // zeroed on every call (288 bytes a line), while these stay
  // uninitialized, and every read is behind the 18-field check below.
  std::size_t begins[kSwfFields];
  std::size_t ends[kSwfFields];
  std::size_t nfields = 0;
  std::size_t i = 0;
  const std::size_t n = line.size();
  while (i < n && is_ws(line[i])) ++i;
  if (i == n) return false;           // blank
  if (line[i] == ';') return false;   // comment/header
  while (i < n) {
    std::size_t begin = i;
    while (i < n && !is_ws(line[i])) ++i;
    if (nfields < kSwfFields) {
      begins[nfields] = begin;
      ends[nfields] = i;
    }
    ++nfields;  // extra trailing fields are counted but ignored
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
  job.submit_time = sim::seconds(std::max<std::int64_t>(submit_s, 0));
  job.base_runtime = sim::seconds(std::max<std::int64_t>(run_s, 0));
  std::int64_t cores = requested > 0 ? requested : allocated;
  job.requested_cores = std::max<std::int64_t>(cores, 1);
  // Requested time missing: fall back to actual runtime (a perfect
  // estimate), matching common replay practice.
  job.requested_walltime =
      sim::seconds(requested_s > 0 ? requested_s : std::max<std::int64_t>(run_s, 1));
  job.user = static_cast<std::int32_t>(user_id > 0 ? user_id : 0);
  job.app.clear();
  out.status = status;
  return true;
}

bool keep_record(const Record& record, const ParseOptions& options) {
  if (options.skip_failed_status && (record.status == 0 || record.status == 5)) {
    return false;
  }
  if (options.skip_zero_runtime && record.job.base_runtime <= 0) return false;
  return true;
}

std::vector<JobRequest> parse(std::istream& in, const ParseOptions& options) {
  std::vector<JobRequest> jobs;
  for_each_record(in, options, [&jobs](const Record& record) {
    jobs.push_back(record.job);
  });
  return jobs;
}

std::vector<JobRequest> parse_string(const std::string& text, const ParseOptions& options) {
  std::istringstream in(text);
  return parse(in, options);
}

std::vector<JobRequest> load_file(const std::string& path, const ParseOptions& options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("swf: cannot open " + path);
  return parse(in, options);
}

sim::Time rebase_submit_times(std::vector<JobRequest>& jobs) {
  if (jobs.empty()) return 0;
  sim::Time base = jobs.front().submit_time;
  sim::Time last = jobs.front().submit_time;
  for (const JobRequest& job : jobs) {
    base = std::min(base, job.submit_time);
    last = std::max(last, job.submit_time);
  }
  for (JobRequest& job : jobs) job.submit_time -= base;
  return last - base;
}

void write(std::ostream& out, const std::vector<JobRequest>& jobs) {
  sim::Time max_submit = 0;
  for (const JobRequest& job : jobs) max_submit = std::max(max_submit, job.submit_time);
  out << "; SWF written by powersched\n";
  out << "; MaxJobs: " << jobs.size() << "\n";
  out << "; " << kMaxSubmitHeader << ' ' << max_submit / 1000 << "\n";
  for (const JobRequest& job : jobs) {
    out << job.id << ' ' << job.submit_time / 1000 << ' ' << -1 << ' '
        << job.base_runtime / 1000 << ' ' << job.requested_cores << ' ' << -1 << ' ' << -1
        << ' ' << job.requested_cores << ' ' << job.requested_walltime / 1000 << ' ' << -1
        << ' ' << 1 << ' ' << job.user << ' ' << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1
        << ' ' << -1 << ' ' << -1 << '\n';
  }
}

}  // namespace ps::workload::swf
