#include "workload/swf.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
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
constexpr std::size_t kBlockBytes = 64 * 1024;

/// Bit k set = 0-based field k is decoded (the columns listed in swf.h).
constexpr std::uint32_t kUsedFields = (1u << 0) | (1u << 1) | (1u << 3) | (1u << 4) |
                                      (1u << 7) | (1u << 8) | (1u << 10) | (1u << 11);
constexpr std::size_t kLastUsedField = 11;

/// The field separators: ' ', '\t', '\v', '\f' and '\r' ('\n' never
/// reaches a line). All are <= 0x20, so most token bytes fail the first
/// compare.
constexpr std::uint64_t kSeparators = (std::uint64_t{1} << ' ') | (std::uint64_t{1} << '\t') |
                                      (std::uint64_t{1} << '\v') | (std::uint64_t{1} << '\f') |
                                      (std::uint64_t{1} << '\r');

bool is_ws(char c) noexcept {
  const auto u = static_cast<unsigned char>(c);
  return u <= 0x20 && ((kSeparators >> u) & 1u) != 0;
}

// Eight bytes at a time (SWAR): byte i of a word is line byte i, so the
// lowest flagged byte is the first in the line. Each scan below only reads
// words that lie wholly inside the line and finishes a shorter tail byte
// by byte.
constexpr std::uint64_t kOnes = 0x0101010101010101ull;
constexpr std::uint64_t kHighBits = 0x8080808080808080ull;

std::uint64_t load_word(const char* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  if constexpr (std::endian::native == std::endian::big) word = __builtin_bswap64(word);
  return word;
}

/// Index of the first byte of `word` that is <= 0x20, or 8. Exact for the
/// first such byte; the borrow can only flag bytes after it.
unsigned first_low_byte(std::uint64_t word) noexcept {
  const std::uint64_t low = (word - 0x21 * kOnes) & ~word & kHighBits;
  return low == 0 ? 8 : static_cast<unsigned>(std::countr_zero(low)) / 8;
}

/// Index of the first byte of `word` that is not an ASCII digit, or 8.
unsigned first_non_digit(std::uint64_t word) noexcept {
  const std::uint64_t d = word - '0' * kOnes;
  const std::uint64_t bad = (d | (d + 0x76 * kOnes)) & kHighBits;
  return bad == 0 ? 8 : static_cast<unsigned>(std::countr_zero(bad)) / 8;
}

/// The value of the first `n` (1..8) bytes of `word`, all ASCII digits.
std::uint64_t digits_value(std::uint64_t word, unsigned n) noexcept {
  // Left-pad with zero digits, then fold pairs, quads and octets.
  std::uint64_t v = ((word - '0' * kOnes) << (64 - 8 * n)) & 0x0F0F0F0F0F0F0F0Full;
  v = (v * 2561) >> 8;  // 10 * 2^8 + 1
  v = ((v & 0x00FF00FF00FF00FFull) * 6553601) >> 16;  // 100 * 2^16 + 1
  return ((v & 0x0000FFFF0000FFFFull) * 42949672960001ull) >> 32;  // 10^4 * 2^32 + 1
}

/// End of the token starting at `p`: the first separator or `end`.
const char* token_end(const char* p, const char* end) noexcept {
  while (end - p >= 8) {
    const unsigned k = first_low_byte(load_word(p));
    p += k;
    if (k == 8) continue;
    if (is_ws(*p)) return p;
    ++p;  // a control byte inside the token
  }
  while (p != end && !is_ws(*p)) ++p;
  return p;
}

/// Decodes a plain `[-]digits` token of 1..18 digits at `p` into `value`
/// and returns its end; nullptr when the token has any other form.
const char* plain_integer(const char* p, const char* end, std::int64_t& value) noexcept {
  const bool negative = *p == '-';
  p += negative ? 1 : 0;
  const char* const digits = p;
  std::uint64_t magnitude = 0;
  if (end - p >= 8) {  // up to eight digits in one step
    const std::uint64_t word = load_word(p);
    const unsigned n = first_non_digit(word);
    if (n != 0) magnitude = digits_value(word, n);
    p += n;
  }
  while (p != end) {  // digits past the eighth, or a tail under eight bytes
    const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (digit > 9) break;
    magnitude = magnitude * 10 + digit;  // wraps harmlessly past 18 digits
    ++p;
  }
  const auto ndigits = static_cast<std::size_t>(p - digits);
  if (ndigits == 0 || ndigits > 18 || (p != end && !is_ws(*p))) return nullptr;
  value = negative ? -static_cast<std::int64_t>(magnitude) : static_cast<std::int64_t>(magnitude);
  return p;
}

/// Largest SWF seconds value whose milliseconds fit sim::Time.
constexpr std::int64_t kMaxSeconds = sim::kTimeMax / sim::seconds(1);

/// sim::seconds(value), or the out-of-range error naming `field` (0-based)
/// when the milliseconds would overflow.
sim::Time checked_seconds(std::int64_t value, std::size_t field, std::size_t line_number) {
  if (value > kMaxSeconds) {
    fail(line_number, "numeric field " + std::to_string(field + 1) + " out of range");
  }
  return sim::seconds(value);
}

}  // namespace

LineReader::LineReader(std::istream& in)
    : in_(&in),
      buf_(std::make_unique_for_overwrite<char[]>(kBlockBytes)),
      capacity_(kBlockBytes) {}

bool LineReader::next(std::string_view& line) {
  std::size_t scanned = pos_;  // bytes before this have no '\n'
  while (true) {
    const char* base = buf_.get();
    const void* newline = std::memchr(base + scanned, '\n', end_ - scanned);
    if (newline != nullptr) {
      const auto at = static_cast<std::size_t>(static_cast<const char*>(newline) - base);
      line = std::string_view(base + pos_, at - pos_);
      pos_ = at + 1;
      ++line_number_;
      return true;
    }
    if (eof_) {
      if (pos_ == end_) return false;
      line = std::string_view(base + pos_, end_ - pos_);
      pos_ = end_;
      ++line_number_;
      return true;
    }
    scanned = end_ - pos_;  // the unfinished line's offset after refill
    refill();
  }
}

void LineReader::refill() {
  const std::size_t partial = end_ - pos_;
  if (partial == capacity_) {
    auto grown = std::make_unique_for_overwrite<char[]>(capacity_ * 2);
    std::memcpy(grown.get(), buf_.get(), partial);
    buf_ = std::move(grown);
    capacity_ *= 2;
  } else if (pos_ > 0) {
    std::memmove(buf_.get(), buf_.get() + pos_, partial);
  }
  pos_ = 0;
  end_ = partial;
  const std::size_t want = capacity_ - end_;
  in_->read(buf_.get() + end_, static_cast<std::streamsize>(want));
  const auto got = static_cast<std::size_t>(in_->gcount());
  end_ += got;
  eof_ = got < want;  // istream::read only stops short at end of input
}

std::ifstream open(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("swf: cannot open " + path);
  return in;
}

bool parse_line(std::string_view line, std::size_t line_number, Record& out) {
  // One in-place scan tokenizes the line and decodes each used field that
  // is a plain [-]digits token of at most 18 digits (below 10^18, so it
  // cannot overflow). Any other used token is only marked here and goes to
  // field_i64 after the field count is known, in field order, so every
  // error and its message are those of the general path. The arrays stay
  // uninitialized: a slot is read only once its field was seen.
  std::int64_t values[kLastUsedField + 1];
  const char* slow_begins[kLastUsedField + 1];
  std::uint32_t slow = 0;  // bit k: field k needs field_i64
  std::size_t nfields = 0;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (p != end && is_ws(*p)) ++p;
  if (p == end) return false;   // blank
  if (*p == ';') return false;  // comment/header
  while (p != end) {
    const bool used = nfields <= kLastUsedField && ((kUsedFields >> nfields) & 1u) != 0;
    const char* const decoded = used ? plain_integer(p, end, values[nfields]) : nullptr;
    if (decoded != nullptr) {
      p = decoded;
    } else {
      if (used) {
        slow_begins[nfields] = p;
        slow |= 1u << nfields;
      }
      p = token_end(p, end);
    }
    ++nfields;  // extra trailing fields are counted but ignored
    while (p != end && is_ws(*p)) ++p;
  }
  if (nfields < kSwfFields) {
    fail(line_number, "expected 18 fields, got " + std::to_string(nfields));
  }
  for (; slow != 0; slow &= slow - 1) {
    const auto k = static_cast<std::size_t>(std::countr_zero(slow));
    const char* const begin = slow_begins[k];
    const auto size = static_cast<std::size_t>(token_end(begin, end) - begin);
    values[k] = field_i64(std::string_view(begin, size), k, line_number);
  }

  const std::int64_t job_number = values[0];
  const std::int64_t submit_s = values[1];
  const std::int64_t run_s = values[3];
  const std::int64_t allocated = values[4];
  const std::int64_t requested = values[7];
  const std::int64_t requested_s = values[8];
  const std::int64_t status = values[10];
  const std::int64_t user_id = values[11];

  JobRequest& job = out.job;
  job.id = job_number;
  job.submit_time = checked_seconds(std::max<std::int64_t>(submit_s, 0), 1, line_number);
  job.base_runtime = checked_seconds(std::max<std::int64_t>(run_s, 0), 3, line_number);
  std::int64_t cores = requested > 0 ? requested : allocated;
  job.requested_cores = std::max<std::int64_t>(cores, 1);
  // Requested time missing: fall back to actual runtime (a perfect
  // estimate), matching common replay practice.
  job.requested_walltime = requested_s > 0 ? checked_seconds(requested_s, 8, line_number)
                                           : sim::seconds(std::max<std::int64_t>(run_s, 1));
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
  std::ifstream in = open(path);
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
