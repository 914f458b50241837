#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <stdexcept>

#include "util/check.h"
#include "util/strings.h"

namespace ps::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

double percentile(std::vector<double> values, double q) {
  PS_CHECK_MSG(!values.empty(), "percentile of empty sample");
  PS_CHECK_MSG(q >= 0.0 && q <= 1.0, "percentile q out of [0,1]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  double rank = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

QuantileSketch::QuantileSketch(double relative_error, double min_value,
                               double max_value)
    : min_value_(min_value) {
  PS_CHECK_MSG(relative_error > 0.0 && relative_error < 0.5,
               "quantile sketch: relative_error in (0, 0.5)");
  PS_CHECK_MSG(min_value > 0.0 && max_value > min_value,
               "quantile sketch: 0 < min_value < max_value");
  gamma_ = (1.0 + relative_error) / (1.0 - relative_error);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  // Bucket 0 holds everything <= min_value; bucket i >= 1 covers
  // (min_value * gamma^(i-1), min_value * gamma^i]. The top bucket absorbs
  // everything past max_value, so the array size is fixed at construction.
  auto spans = static_cast<std::size_t>(
      std::ceil(std::log(max_value / min_value) * inv_log_gamma_));
  counts_.assign(spans + 2, 0);
}

std::size_t QuantileSketch::bucket_index(double x) const noexcept {
  if (!(x > min_value_)) return 0;  // also catches NaN: conservative floor
  auto i = static_cast<std::size_t>(
      std::ceil(std::log(x / min_value_) * inv_log_gamma_));
  return std::min(i == 0 ? 1 : i, counts_.size() - 1);
}

void QuantileSketch::add(double x) noexcept {
  ++counts_[bucket_index(x)];
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

void QuantileSketch::merge(const QuantileSketch& other) {
  PS_CHECK_MSG(other.counts_.size() == counts_.size() &&
                   other.gamma_ == gamma_ && other.min_value_ == min_value_,
               "quantile sketch merge: geometry mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    min_ = count_ ? std::min(min_, other.min_) : other.min_;
    max_ = count_ ? std::max(max_, other.max_) : other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

namespace {

// Doubles travel as IEEE-754 bit patterns (16 hex digits) so a sketch
// restored from a checkpoint has *bit-identical* geometry — merge()'s
// equality checks on gamma_/min_value_ must keep holding after a round trip.
std::string double_hex(double value) {
  return strings::format("%016" PRIx64, std::bit_cast<std::uint64_t>(value));
}

[[noreturn]] void sketch_fail(const std::string& detail) {
  throw std::runtime_error("quantile sketch parse: " + detail);
}

/// Splits off the next space-delimited token; fails on exhaustion.
std::string_view next_token(std::string_view& text) {
  while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  if (text.empty()) sketch_fail("truncated (missing token)");
  std::size_t end = text.find(' ');
  std::string_view token = text.substr(0, end);
  text.remove_prefix(end == std::string_view::npos ? text.size() : end);
  return token;
}

std::uint64_t parse_u64(std::string_view token, int base) {
  std::optional<std::uint64_t> value = strings::parse_u64(token, base);
  if (!value) sketch_fail("bad integer token '" + std::string(token) + "'");
  return *value;
}

double parse_double_hex(std::string_view token) {
  if (token.size() != 16) sketch_fail("double token is not 16 hex digits");
  return std::bit_cast<double>(parse_u64(token, 16));
}

}  // namespace

std::string QuantileSketch::serialize() const {
  // One line, no trailing newline, so the sketch embeds as a single string
  // field inside a dist::Writer document. Buckets are sparse `<i>:<count>`
  // pairs in ascending index order — a latency sketch over a narrow band of
  // observed values touches a handful of its ~2400 buckets.
  std::string out = "qsketch1";
  out += ' ';
  out += double_hex(gamma_);
  out += ' ';
  out += double_hex(min_value_);
  out += ' ';
  out += double_hex(inv_log_gamma_);
  out += strings::format(" %zu %llu", counts_.size(),
                         static_cast<unsigned long long>(count_));
  out += ' ';
  out += double_hex(sum_);
  out += ' ';
  out += double_hex(min_);
  out += ' ';
  out += double_hex(max_);
  std::size_t nonzero = 0;
  for (std::uint64_t c : counts_) nonzero += c != 0;
  out += strings::format(" %zu", nonzero);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    out += strings::format(" %zu:%llu", i,
                           static_cast<unsigned long long>(counts_[i]));
  }
  return out;
}

QuantileSketch QuantileSketch::parse(std::string_view text) {
  if (next_token(text) != "qsketch1") sketch_fail("bad prefix");
  QuantileSketch sketch{RawTag{}};
  sketch.gamma_ = parse_double_hex(next_token(text));
  sketch.min_value_ = parse_double_hex(next_token(text));
  sketch.inv_log_gamma_ = parse_double_hex(next_token(text));
  std::uint64_t buckets = parse_u64(next_token(text), 10);
  if (buckets < 2 || buckets > (1u << 24)) sketch_fail("bucket count out of range");
  sketch.counts_.assign(static_cast<std::size_t>(buckets), 0);
  sketch.count_ = parse_u64(next_token(text), 10);
  sketch.sum_ = parse_double_hex(next_token(text));
  sketch.min_ = parse_double_hex(next_token(text));
  sketch.max_ = parse_double_hex(next_token(text));
  if (!(sketch.gamma_ > 1.0) || !(sketch.min_value_ > 0.0)) {
    sketch_fail("geometry out of range");
  }
  std::uint64_t nonzero = parse_u64(next_token(text), 10);
  std::uint64_t total = 0;
  std::int64_t last_index = -1;
  for (std::uint64_t k = 0; k < nonzero; ++k) {
    std::string_view pair = next_token(text);
    std::size_t colon = pair.find(':');
    if (colon == std::string_view::npos) sketch_fail("bucket pair missing ':'");
    std::uint64_t index = parse_u64(pair.substr(0, colon), 10);
    std::uint64_t bucket_count = parse_u64(pair.substr(colon + 1), 10);
    if (index >= buckets) sketch_fail("bucket index out of range");
    if (static_cast<std::int64_t>(index) <= last_index) {
      sketch_fail("bucket indices not strictly ascending");
    }
    if (bucket_count == 0) sketch_fail("explicit zero bucket");
    last_index = static_cast<std::int64_t>(index);
    sketch.counts_[static_cast<std::size_t>(index)] = bucket_count;
    total += bucket_count;
  }
  while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  if (!text.empty()) sketch_fail("trailing garbage");
  if (total != sketch.count_) sketch_fail("bucket counts do not sum to count");
  return sketch;
}

double QuantileSketch::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * n) contains the exact q-quantile sample.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      if (i == 0) return min_value_;
      // Bucket i covers (lo, lo * gamma]; the arithmetic midpoint caps the
      // relative error at (gamma - 1) / 2 for any sample in the bucket.
      double lo = min_value_ * std::pow(gamma_, static_cast<double>(i - 1));
      return lo * (1.0 + gamma_) / 2.0;
    }
  }
  return max_;  // unreachable: cumulative == count_ by the loop end
}

}  // namespace ps::util
