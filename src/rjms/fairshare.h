// Simplified SLURM fair-share factor.
//
// Each user holds an equal share. Usage (consumed core-seconds) decays
// exponentially with a configurable half-life; the fair-share factor is the
// classic 2^(-U/S) where U is the user's fraction of decayed total usage
// and S the user's share fraction. Factor 1 = unused allocation, 0.5 =
// exactly consumed share, -> 0 heavy over-consumption.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/time.h"

namespace ps::rjms {

class FairShare {
 public:
  /// half_life: decay half-life of historical usage (default 7 days).
  explicit FairShare(sim::Duration half_life = sim::hours(7 * 24));

  /// Records `core_seconds` of usage by `user` at time `now`.
  void charge(std::int32_t user, double core_seconds, sim::Time now);

  /// Fair-share factor in (0, 1] for `user` at time `now`, given `total` =
  /// total_usage(now). A scheduling pass prices many users at one instant:
  /// computing the O(users) total once and passing it here makes the pass
  /// O(users) instead of O(users^2).
  double factor(std::int32_t user, sim::Time now, double total) const;

  /// Decayed total usage across users at `now` (core-seconds). Keeps each
  /// user's decayed usage at `now`, which factor(user, now, total) reuses
  /// instead of decaying it again (the same double either way).
  double total_usage(sim::Time now) const;

  std::size_t user_count() const noexcept { return usage_.size(); }

 private:
  double decay_to(double usage, sim::Time from, sim::Time to) const;

  sim::Duration half_life_;
  struct Entry {
    double usage = 0.0;       // core-seconds, decayed as of `as_of`
    sim::Time as_of = 0;
    // decay_to(usage, as_of, decayed_at), memoized by total_usage.
    mutable double decayed = 0.0;
    mutable sim::Time decayed_at = sim::kTimeMax;
  };
  std::unordered_map<std::int32_t, Entry> usage_;
};

}  // namespace ps::rjms
