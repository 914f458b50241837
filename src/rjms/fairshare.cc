#include "rjms/fairshare.h"

#include <cmath>

#include "util/check.h"

namespace ps::rjms {

FairShare::FairShare(sim::Duration half_life) : half_life_(half_life) {
  PS_CHECK_MSG(half_life_ > 0, "fairshare half-life must be positive");
}

double FairShare::decay_to(double usage, sim::Time from, sim::Time to) const {
  if (to <= from || usage == 0.0) return usage;
  double halves = static_cast<double>(to - from) / static_cast<double>(half_life_);
  return usage * std::exp2(-halves);
}

void FairShare::charge(std::int32_t user, double core_seconds, sim::Time now) {
  PS_CHECK_MSG(core_seconds >= 0.0, "fairshare charge must be non-negative");
  Entry& entry = usage_[user];
  entry.usage = decay_to(entry.usage, entry.as_of, now) + core_seconds;
  entry.as_of = now;
  entry.decayed_at = sim::kTimeMax;
}

double FairShare::total_usage(sim::Time now) const {
  double total = 0.0;
  for (const auto& [user, entry] : usage_) {
    entry.decayed = decay_to(entry.usage, entry.as_of, now);
    entry.decayed_at = now;
    total += entry.decayed;
  }
  return total;
}

double FairShare::factor(std::int32_t user, sim::Time now, double total) const {
  if (total <= 0.0) return 1.0;
  auto it = usage_.find(user);
  double mine = 0.0;
  if (it != usage_.end()) {
    const Entry& entry = it->second;
    mine = entry.decayed_at == now ? entry.decayed : decay_to(entry.usage, entry.as_of, now);
  }
  double usage_fraction = mine / total;
  // Equal shares: with k known users each share is 1/k. Unknown users have
  // zero usage, so counting only seen users is conservative.
  double share = usage_.empty() ? 1.0 : 1.0 / static_cast<double>(usage_.size());
  return std::exp2(-usage_fraction / share);
}

}  // namespace ps::rjms
