#include "dist/fault.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "core/fingerprint.h"
#include "util/strings.h"

namespace ps::dist {

namespace {

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw std::runtime_error("fault plan '" + std::string(spec) + "': " + why);
}

constexpr const char* kSiteTokens[kFaultSiteCount] = {
    "die_before_publish", "hang_after_claim", "stall_heartbeat",
    "torn_publish", "corrupt_result",
    // serve-tier sites (see fault.h)
    "die_after_claim", "die_before_checkpoint", "torn_checkpoint",
    "die_after_checkpoint", "stall_ingest",
    // hostile-client sites (see fault.h)
    "corrupt_submission", "flood_burst", "stall_client", "dup_publish",
    "lie_watermark",
    // serve-tier site appended last (see fault.h)
    "stall_drain",
};

}  // namespace

bool FaultPlan::fires(FaultSite site, std::uint64_t shard_id,
                      std::uint64_t attempt) const {
  if (!sites[static_cast<std::size_t>(site)] || rate <= 0.0) return false;
  if (attempt > max_attempt) return false;
  if (!shards.empty() &&
      std::find(shards.begin(), shards.end(), shard_id) == shards.end()) {
    return false;
  }
  std::uint64_t h = core::fnv1a(0xcbf29ce484222325ull, seed);
  h = core::fnv1a(h, static_cast<std::uint64_t>(site) + 1);
  h = core::fnv1a(h, shard_id);
  h = core::fnv1a(h, attempt);
  // Top 53 bits → uniform [0,1): exact in a double, bias-free.
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  bool any_site_key = false;
  for (const std::string& part : strings::split(spec, ',')) {
    std::string_view kv = strings::trim(part);
    if (kv.empty()) continue;
    std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos) bad_spec(spec, "want key=value pairs");
    std::string_view key = kv.substr(0, eq);
    std::string value(kv.substr(eq + 1));
    if (key == "seed") {
      auto parsed = strings::parse_u64(value);
      if (!parsed) bad_spec(spec, "malformed seed");
      plan.seed = *parsed;
    } else if (key == "rate") {
      auto parsed = strings::parse_f64(value);
      if (!parsed || *parsed < 0.0 || *parsed > 1.0) {
        bad_spec(spec, "rate wants [0,1]");
      }
      plan.rate = *parsed;
    } else if (key == "max_attempt") {
      auto parsed = strings::parse_u64(value);
      if (!parsed) bad_spec(spec, "malformed max_attempt");
      plan.max_attempt = *parsed;
    } else if (key == "sites") {
      any_site_key = true;
      for (const std::string& token : strings::split(value, '+')) {
        if (token == "all") {
          for (bool& site : plan.sites) site = true;
          continue;
        }
        bool known = false;
        for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
          if (token == kSiteTokens[s]) {
            plan.sites[s] = true;
            known = true;
            break;
          }
        }
        if (!known) bad_spec(spec, "unknown site '" + token + "'");
      }
    } else if (key == "shards") {
      for (const std::string& token : strings::split(value, '+')) {
        auto parsed = strings::parse_u64(token);
        if (!parsed) bad_spec(spec, "malformed shard id");
        plan.shards.push_back(*parsed);
      }
    } else {
      bad_spec(spec, "unknown key '" + std::string(key) + "'");
    }
  }
  if (plan.rate > 0.0 && !any_site_key) {
    bad_spec(spec, "a positive rate wants an explicit sites= list");
  }
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const char* env = std::getenv("PS_SWEEP_FAULTS");
  if (env == nullptr || *env == '\0') return {};
  return parse(env);
}

}  // namespace ps::dist
