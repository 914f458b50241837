// Deterministic random number generation.
//
// Every stochastic component (workload synthesis, tie-breaking experiments)
// takes an explicit Rng so that a (seed, profile) pair always produces the
// same trace — the paper's replay methodology relies on deterministic
// replays being comparable across policies.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/check.h"

namespace ps::util {

/// Discrete choice over fixed weights, built once and drawn many times:
/// Rng::weighted_index returns an index < weights.size() with probability
/// proportional to weights[i]. A draw is one canonical double and a binary
/// search of the cumulative table, which libstdc++'s discrete_distribution
/// keeps no state around — so a prebuilt table draws exactly what a fresh
/// distribution per draw would, without rebuilding and renormalising it.
class WeightedIndex {
 public:
  explicit WeightedIndex(const std::vector<double>& weights) {
    PS_CHECK_MSG(!weights.empty(), "weighted_index needs at least one weight");
    table_ = std::discrete_distribution<std::size_t>(weights.begin(), weights.end());
  }

 private:
  friend class Rng;
  // Drawing is logically const (see above); the std interface is not.
  mutable std::discrete_distribution<std::size_t> table_;
};

/// Thin deterministic wrapper over std::mt19937_64 with the distributions
/// the workload generator needs. Distribution objects are created per call:
/// stateless use keeps streams reproducible regardless of call interleaving.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    PS_CHECK_MSG(lo <= hi, "uniform_int bounds inverted");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    PS_CHECK_MSG(lo <= hi, "uniform bounds inverted");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with probability p of true.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Log-normal sample with the given *underlying normal* mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Exponential sample with the given mean (= 1/lambda).
  double exponential_mean(double mean) {
    PS_CHECK_MSG(mean > 0.0, "exponential mean must be positive");
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Discrete choice from a prebuilt table (see WeightedIndex).
  std::size_t weighted_index(const WeightedIndex& table) { return table.table_(engine_); }

  /// Direct access for std::shuffle and custom distributions.
  std::mt19937_64& engine() noexcept { return engine_; }

  /// Derives an independent child stream; parent advances by one draw.
  Rng fork() { return Rng(engine_()); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ps::util
