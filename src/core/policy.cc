#include "core/policy.h"

#include "util/strings.h"

namespace ps::core {

const char* to_string(AdmissionMode mode) noexcept {
  switch (mode) {
    case AdmissionMode::PaperLive: return "paper-live";
    case AdmissionMode::PaperLiveStrict: return "paper-live-strict";
    case AdmissionMode::Projection: return "projection";
  }
  return "?";
}

const char* to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::None: return "None";
    case Policy::Shut: return "SHUT";
    case Policy::Dvfs: return "DVFS";
    case Policy::Mix: return "MIX";
    case Policy::Idle: return "IDLE";
    case Policy::Auto: return "AUTO";
  }
  return "?";
}

std::optional<Policy> parse_policy(std::string_view name) {
  const std::string lowered = strings::to_lower(name);
  for (Policy policy : {Policy::None, Policy::Shut, Policy::Dvfs, Policy::Mix,
                        Policy::Idle, Policy::Auto}) {
    if (lowered == strings::to_lower(to_string(policy))) return policy;
  }
  return std::nullopt;
}

}  // namespace ps::core
