#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "util/check.h"
#include "util/wire.h"

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

template <class Io, class T>
void qsketch(Io& io, T& sketch) {
  // Sparse rows: a latency sketch over a narrow band of observed values
  // touches a handful of its ~2400 buckets.
  struct Bucket {
    std::uint64_t index = 0;
    std::uint64_t count = 0;
  };
  std::vector<Bucket> buckets;
  std::uint64_t size = sketch.counts_.size();
  if constexpr (std::is_const_v<T>) {
    for (std::size_t i = 0; i < sketch.counts_.size(); ++i) {
      if (sketch.counts_[i] != 0) buckets.push_back({i, sketch.counts_[i]});
    }
  }
  io.block("qsketch", [&] {
    io.f64("gamma", sketch.gamma_);
    io.f64("min_value", sketch.min_value_);
    io.f64("inv_log_gamma", sketch.inv_log_gamma_);
    io.u64("bucket_count", size);
    io.u64("count", sketch.count_);
    io.f64("sum", sketch.sum_);
    io.f64("min", sketch.min_);
    io.f64("max", sketch.max_);
    io.list("buckets", buckets, [&](auto& bucket) {
      io.row("bucket", [&] {
        io.u64("index", bucket.index);
        io.u64("count", bucket.count);
      });
    });
  });
  if constexpr (!std::is_const_v<T>) {
    if (size < 2 || size > (1u << 24)) io.fail("qsketch bucket count out of range");
    if (!(sketch.gamma_ > 1.0) || !(sketch.min_value_ > 0.0)) {
      io.fail("qsketch geometry out of range");
    }
    sketch.counts_.assign(size, 0);
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < buckets.size(); ++k) {
      const Bucket& bucket = buckets[k];
      if (bucket.index >= size) io.fail("qsketch bucket index out of range");
      if (k > 0 && bucket.index <= buckets[k - 1].index) {
        io.fail("qsketch bucket indices not strictly ascending");
      }
      if (bucket.count == 0) io.fail("qsketch explicit zero bucket");
      // Against what is left of `count`, so the running sum cannot wrap.
      if (bucket.count > sketch.count_ - total) {
        io.fail("qsketch bucket counts do not sum to count");
      }
      sketch.counts_[bucket.index] = bucket.count;
      total += bucket.count;
    }
    if (total != sketch.count_) io.fail("qsketch bucket counts do not sum to count");
  }
}

template void qsketch(Writer&, const QuantileSketch&);
template void qsketch(Reader&, QuantileSketch&);

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
