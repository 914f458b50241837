#include "util/fault.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "util/seal.h"
#include "util/strings.h"

namespace ps::util {

namespace {

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw std::runtime_error("fault plan '" + std::string(spec) + "': " + why);
}

}  // namespace

void emulate_sigkill() { ::_exit(137); }

bool FaultTrigger::fires(std::uint64_t draw, std::uint64_t key,
                         std::uint64_t attempt) const {
  if ((enabled >> draw & 1) == 0 || rate <= 0.0) return false;
  if (attempt > max_attempt) return false;
  if (!keys.empty() && std::find(keys.begin(), keys.end(), key) == keys.end()) {
    return false;
  }
  std::uint64_t h = fnv1a(0xcbf29ce484222325ull, seed);
  h = fnv1a(h, draw + 1);
  h = fnv1a(h, key);
  h = fnv1a(h, attempt);
  // Top 53 bits → uniform [0,1): exact in a double, bias-free.
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

FaultTrigger FaultTrigger::parse(std::string_view spec,
                                 std::uint64_t (*site_bits)(std::string_view)) {
  FaultTrigger plan;
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
        const std::uint64_t bits = site_bits(token);
        if (bits == 0) bad_spec(spec, "unknown site '" + token + "'");
        plan.enabled |= bits;
      }
    } else if (key == "shards") {
      for (const std::string& token : strings::split(value, '+')) {
        auto parsed = strings::parse_u64(token);
        if (!parsed) bad_spec(spec, "malformed shard id");
        plan.keys.push_back(*parsed);
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

}  // namespace ps::util
