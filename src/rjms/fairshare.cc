#include "rjms/fairshare.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps::rjms {

FairShare::FairShare(sim::Duration half_life) : half_life_(half_life) {
  PS_CHECK_MSG(half_life_ > 0, "fairshare half-life must be positive");
}

void FairShare::charge(std::int32_t user, double core_seconds, sim::Time now) {
  PS_CHECK_MSG(core_seconds >= 0.0, "fairshare charge must be non-negative");
  std::int64_t halves = (now - epoch_) / half_life_;
  if (halves >= kRebaseHalfLives) {
    epoch_ += halves * half_life_;
    // Past ~1100 halvings every double is 0; the clamp keeps the int exact.
    int shift = -static_cast<int>(std::min<std::int64_t>(halves, 4096));
    for (auto& [id, usage] : usage_) usage = std::ldexp(usage, shift);
    total_ = std::ldexp(total_, shift);  // not re-summed: that rounds anew
  }
  double scaled = core_seconds * std::exp2(static_cast<double>(now - epoch_) /
                                           static_cast<double>(half_life_));
  usage_[user] += scaled;
  total_ += scaled;
}

const double* FairShare::usage_slot(std::int32_t user) const {
  auto it = usage_.find(user);
  return it != usage_.end() ? &it->second : nullptr;
}

double FairShare::factor_at(const double* slot) const {
  if (total_ <= 0.0) return 1.0;
  double mine = slot != nullptr ? *slot : 0.0;
  // Equal shares: with k known users each share is 1/k. Unknown users have
  // zero usage, so counting only seen users is conservative.
  return std::exp2(-(mine / total_) * static_cast<double>(usage_.size()));
}

}  // namespace ps::rjms
