// Runtime/walltime degradation under DVFS (paper §V).
//
// "The walltime should be increased up to 60 % for the minimum CPU
// frequency, while intermediate values of walltimes are linearly
// interpolated." We interpolate the degradation factor linearly in GHz
// between 1 at fmax and degmin at fmin. With the default degmin 1.63 this
// yields exactly 1.29 at the 2.0 GHz MIX floor — the value the paper uses
// for MIX replays.
#pragma once

#include <vector>

#include "cluster/frequency.h"

namespace ps::cluster {

class DegradationModel {
 public:
  /// `default_degmin`: degradation at table.min() for jobs without an
  /// application model (paper: 1.63).
  DegradationModel(const FrequencyTable& table, double default_degmin = 1.63);

  /// Degradation factor at level `f` for the default degmin.
  double factor(FreqIndex f) const { return factor(f, default_degmin_); }

  /// Degradation factor at level `f` for a job whose full-span degradation
  /// is `degmin` (linear in GHz; 1 at fmax).
  double factor(FreqIndex f, double degmin) const;

  /// Degradation factor at an arbitrary frequency in GHz (clamped to the
  /// table span). Used for MIX floor values that may sit between levels.
  double factor_at_ghz(double ghz, double degmin) const;

  double default_degmin() const noexcept { return default_degmin_; }
  double min_ghz() const noexcept { return min_ghz_; }
  double max_ghz() const noexcept { return max_ghz_; }

 private:
  double default_degmin_;
  double min_ghz_;
  double max_ghz_;
  std::vector<double> level_ghz_;
};

}  // namespace ps::cluster
