// Reference fair-share factor, computed the direct way: each user's usage
// is kept as of its last charge, decayed to `now` on every query, and the
// total is summed over all users. O(users) per factor, with none of
// FairShare's fixed time frame or rebasing.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "sim/time.h"

namespace ps::rjms {

class ReferenceFairShare {
 public:
  explicit ReferenceFairShare(sim::Duration half_life) : half_life_(half_life) {}

  void charge(std::int32_t user, double core_seconds, sim::Time now) {
    Entry& entry = usage_[user];
    entry.usage = decay_to(entry, now) + core_seconds;
    entry.as_of = now;
  }

  double factor(std::int32_t user, sim::Time now) const {
    double total = 0.0;
    for (const auto& [id, entry] : usage_) total += decay_to(entry, now);
    if (total <= 0.0) return 1.0;
    auto it = usage_.find(user);
    double mine = it != usage_.end() ? decay_to(it->second, now) : 0.0;
    double share = 1.0 / static_cast<double>(usage_.size());
    return std::exp2(-(mine / total) / share);
  }

 private:
  struct Entry {
    double usage = 0.0;  // core-seconds, decayed as of `as_of`
    sim::Time as_of = 0;
  };

  double decay_to(const Entry& entry, sim::Time to) const {
    if (to <= entry.as_of || entry.usage == 0.0) return entry.usage;
    double halves = static_cast<double>(to - entry.as_of) / static_cast<double>(half_life_);
    return entry.usage * std::exp2(-halves);
  }

  sim::Duration half_life_;
  std::unordered_map<std::int32_t, Entry> usage_;
};

}  // namespace ps::rjms
