// Deterministic fault injection: the pure trigger behind every tier's
// chaos sites. Each tier declares its own sites next to the code that
// fires them: the sweep worker (dist/worker.h), the ps-serve daemon
// (serve/server.h) and the ps-load client (serve/load_gen.h).
//
// A plan decides, purely from (seed, site, key, attempt), whether a site
// fires. No wall clock, no RNG state: the same plan over the same run
// produces the same fault schedule every time, so a chaos soak is
// reproducible and its golden-fingerprint assertion is meaningful. What
// `key` and `attempt` count is up to the tier (see its site table).
// Faults are *bounded by construction*: nothing fires once `attempt`
// exceeds `max_attempt`, so a retrying caller always converges.
//
// A plan is parsed from a spec string of key=value pairs:
//
//   seed=7,rate=0.3,sites=die_before_publish+torn_publish,max_attempt=2
//   seed=7,rate=1,sites=all,shards=0+2,max_attempt=1
//
// `sites=` takes '+'-joined tokens of the parsing tier's own table; a
// token of another tier is an unknown site, and `all` enables every site
// of that tier only. `shards=` restricts the plan to the listed keys
// (empty = every key).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace ps::util {

/// One row of a tier's site table. The site's enum value is its *draw
/// number*, the index mixed into the trigger: it must never change once a
/// committed spec names the site, or that spec's schedule moves.
template <class Site>
struct FaultSiteName {
  std::string_view token;
  Site site;
};

/// The tier-independent half of a plan.
struct FaultTrigger {
  std::uint64_t seed = 0;
  /// Probability, per enabled (site, key, attempt), that the site fires.
  double rate = 0.0;
  /// Sites never fire past this attempt number.
  std::uint64_t max_attempt = 2;
  /// Bit d set = the site with draw number d is enabled.
  std::uint64_t enabled = 0;
  /// Empty = every key; else only the listed keys can fault.
  std::vector<std::uint64_t> keys;

  /// FNV-mixed (seed, draw, key, attempt) mapped to [0,1) and compared
  /// against `rate`. Independent draws per site.
  bool fires(std::uint64_t draw, std::uint64_t key, std::uint64_t attempt) const;

  /// Parses a spec (format above); `site_bits(token)` returns the draw
  /// bits one sites= token enables, 0 for an unknown token. Throws
  /// std::runtime_error on a malformed spec — a chaos schedule must never
  /// be silently partial.
  static FaultTrigger parse(std::string_view spec,
                            std::uint64_t (*site_bits)(std::string_view token));
};

/// A tier's plan: the trigger, typed by the tier's site enum and parsed
/// against its table `kSites`. Inert by default.
template <class Site, const auto& kSites>
class FaultPlan {
  static_assert(std::ranges::all_of(kSites, [](const auto& row) {
                  return static_cast<std::uint64_t>(row.site) < 64;
                }), "a draw number indexes FaultTrigger::enabled");

 public:
  FaultPlan() = default;

  static FaultPlan parse(std::string_view spec) {
    return FaultPlan(FaultTrigger::parse(spec, &site_bits));
  }

  bool fires(Site site, std::uint64_t key, std::uint64_t attempt) const {
    return trigger_.fires(static_cast<std::uint64_t>(site), key, attempt);
  }

 private:
  explicit FaultPlan(FaultTrigger trigger) : trigger_(std::move(trigger)) {}

  static std::uint64_t site_bits(std::string_view token) {
    std::uint64_t bits = 0;
    for (const FaultSiteName<Site>& row : kSites) {
      if (token == "all" || token == row.token) {
        bits |= std::uint64_t{1} << static_cast<std::uint64_t>(row.site);
      }
    }
    return bits;
  }

  FaultTrigger trigger_;
};

/// The crash a tier's kill sites inject: `_exit(137)`, exactly as `kill -9`
/// ends a process — no stack unwinding, no atexit, no flushed buffers.
[[noreturn]] void emulate_sigkill();

}  // namespace ps::util
