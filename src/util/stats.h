// Small statistics toolkit used by trace analysis and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ps::util {

/// Streaming count/mean/min/max/sum. The mean is updated incrementally
/// (Welford), which stays accurate around a large common offset.
class RunningStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample (linear interpolation between closest ranks).
/// `q` in [0,1]. Sorts a copy; fine for reporting-sized data.
double percentile(std::vector<double> values, double q);

/// Median convenience wrapper.
double median(std::vector<double> values);

/// Field walk of a QuantileSketch (util/wire.h): geometry and totals as
/// IEEE-754 bit patterns, then one `bucket <index> <count>` row per nonzero
/// bucket in ascending index order. Nested in the serve checkpoint, so a
/// restored sketch reports bit-identical quantiles and still merges with a
/// live one. Parsing rejects, as a util::SerdeError, a bucket count outside
/// [2, 2^24], gamma <= 1 or min_value <= 0, bucket indices out of range or
/// not strictly ascending, an explicit zero bucket, and bucket counts that
/// do not sum to `count`.
template <class Io, class T>
void qsketch(Io& io, T& sketch);

/// O(1)-memory quantile sketch over positive values (DDSketch-style
/// logarithmic buckets): bucket i covers (min_value * gamma^i,
/// min_value * gamma^(i+1)], with gamma = (1 + e) / (1 - e) for the
/// requested relative error e. The bucket array is sized once at
/// construction from [min_value, max_value] — the footprint is a constant
/// function of the *configured range*, never of the sample count, which is
/// what lets the live service track admission-latency percentiles over
/// millions of submissions in a few kilobytes (src/serve/).
///
/// Guarantee: quantile(q) returns a value v with
///   |v - x_q| <= error_bound() * x_q
/// where x_q is the exact q-quantile of the inserted samples (nearest-rank,
/// rank = ceil(q * n)), for any x_q inside [min_value, max_value].
/// error_bound() = (gamma - 1) / 2, which is e / (1 - e) — about e for
/// small e. Samples at or below min_value report as min_value; samples
/// above max_value clamp into the top bucket (both directions preserve
/// rank, only value resolution saturates). The property test
/// (tests/util_stats_sketch_test.cc) cross-checks this bound against an exact
/// sorted reference on seeded random streams.
class QuantileSketch {
 public:
  /// `relative_error` in (0, 0.5); default bucket geometry spans
  /// [1e-3, 1e12] — e.g. microseconds to ~11 days when samples are in
  /// milliseconds — in ~2400 buckets at 1 % error.
  explicit QuantileSketch(double relative_error = 0.01, double min_value = 1e-3,
                          double max_value = 1e12);

  void add(double x) noexcept;
  /// Merges another sketch with identical geometry (checked).
  void merge(const QuantileSketch& other);

  /// Nearest-rank quantile estimate; q in [0, 1]. 0 when empty.
  double quantile(double q) const noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  /// Exact extremes (tracked outside the buckets).
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

  /// Maximum relative error of quantile(): (gamma - 1) / 2.
  double error_bound() const noexcept { return (gamma_ - 1.0) / 2.0; }
  /// Heap + inline footprint — constant after construction (the O(1)-memory
  /// claim the property test pins across 10^6 samples).
  std::size_t footprint_bytes() const noexcept {
    return sizeof(*this) + counts_.capacity() * sizeof(std::uint64_t);
  }
  std::size_t bucket_count() const noexcept { return counts_.size(); }

 private:
  template <class Io, class T>
  friend void qsketch(Io& io, T& sketch);

  std::size_t bucket_index(double x) const noexcept;

  double min_value_;
  double gamma_;
  double inv_log_gamma_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ps::util
