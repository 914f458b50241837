#include "cluster/degradation.h"

#include <algorithm>

#include "util/check.h"

namespace ps::cluster {

DegradationModel::DegradationModel(const FrequencyTable& table, double default_degmin)
    : default_degmin_(default_degmin),
      min_ghz_(table.min().ghz),
      max_ghz_(table.max().ghz) {
  PS_CHECK_MSG(default_degmin_ >= 1.0, "degmin must be >= 1");
  level_ghz_.reserve(table.size());
  for (FreqIndex f = 0; f < table.size(); ++f) {
    level_ghz_.push_back(table.ghz(f));
  }
}

double DegradationModel::factor(FreqIndex f, double degmin) const {
  PS_CHECK_MSG(f < level_ghz_.size(), "frequency index out of range");
  return factor_at_ghz(level_ghz_[f], degmin);
}

double DegradationModel::factor_at_ghz(double ghz, double degmin) const {
  PS_CHECK_MSG(degmin >= 1.0, "degmin must be >= 1");
  if (max_ghz_ - min_ghz_ < 1e-12) return 1.0;
  double clamped = std::clamp(ghz, min_ghz_, max_ghz_);
  double span_fraction = (max_ghz_ - clamped) / (max_ghz_ - min_ghz_);
  return 1.0 + (degmin - 1.0) * span_fraction;
}

}  // namespace ps::cluster
