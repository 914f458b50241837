// Multifactor job prioritization (paper §IV-A: "the usual backfilling may
// be enriched with multifactor priorities such as job age and job size or
// even more sophisticated features like fair-sharing").
//
// priority = w_age * age_factor + w_size * size_factor + w_fs * fs_factor
// with each factor in [0, 1], mirroring SLURM's priority/multifactor plugin.
#pragma once

#include <cstdint>

#include "rjms/job.h"
#include "sim/time.h"

namespace ps::rjms {

struct PriorityWeights {
  double age = 1000.0;
  double size = 500.0;
  double fair_share = 2000.0;
  /// Wait time at which the age factor saturates to 1 (SLURM default 7d;
  /// shorter here so it matters within 5 h replays).
  sim::Duration age_saturation = sim::hours(24);
};

class PriorityCalculator {
 public:
  PriorityCalculator(PriorityWeights weights, std::int64_t total_cores);

  /// Priority of a pending job at `now`, given its user's fair-share factor
  /// (a scheduling pass prices every pending job of a user with one
  /// factor; 1 when fair-share is off).
  double compute(const Job& job, sim::Time now, double fs_factor) const;

  const PriorityWeights& weights() const noexcept { return weights_; }
  std::int64_t total_cores() const noexcept { return total_cores_; }

 private:
  PriorityWeights weights_;
  std::int64_t total_cores_;
};

}  // namespace ps::rjms
