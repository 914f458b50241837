// Simplified SLURM fair-share factor.
//
// Each user holds an equal share. Usage (consumed core-seconds) decays
// exponentially with a configurable half-life; the fair-share factor is the
// classic 2^(-U/S) where U is the user's fraction of decayed total usage
// and S the user's share fraction. Factor 1 = unused allocation, 0.5 =
// exactly consumed share, -> 0 heavy over-consumption.
//
// Usage is kept in one fixed time frame: a charge of c at time t is stored
// as c * 2^((t - epoch) / half_life). At any later time T every stored
// value is its decayed usage times the same 2^((T - epoch) / half_life),
// so U, a ratio of sums, does not change between charges: the factor
// needs no `now`, and pricing a user is one lookup and one exp2 with no
// pass over all users.
//
// Once a charge lands kRebaseHalfLives past `epoch`, it moves `epoch` on
// by n whole half-lives and scales every value and the total by 2^-n with
// ldexp. That is exact in binary floating point (subnormals aside), so a
// rebase moves no factor bit.
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

  /// Fair-share factor in (0, 1] for `user` at any time from the last
  /// charge on.
  double factor(std::int32_t user) const { return factor_at(usage_slot(user)); }

  /// The user's usage cell: null until the user's first charge, then the
  /// same address for this FairShare's lifetime (map nodes never move and
  /// are never erased; a rebase rescales in place). A caller that prices
  /// the same users on every pass keeps it and skips the lookup.
  const double* usage_slot(std::int32_t user) const;
  /// factor() of the user whose usage_slot() is `slot`.
  double factor_at(const double* slot) const;

  std::size_t user_count() const noexcept { return usage_.size(); }

 private:
  static constexpr std::int64_t kRebaseHalfLives = 64;

  sim::Duration half_life_;
  sim::Time epoch_ = 0;
  double total_ = 0.0;                            // sum of usage_ values
  std::unordered_map<std::int32_t, double> usage_;  // scaled to the frame
};

}  // namespace ps::rjms
