// Capped exponential backoff with deterministic seeded jitter — the
// retry-delay policy of ps-load's backpressure-gate waits. (Spool claims
// do not use it: util::claim_file keeps its own schedule.)
//
// Why jitter at all: a fleet of clients that all see `accepting=false` at
// the same instant and all sleep the same doubling schedule re-arrives in
// lockstep — the thundering herd the backpressure gate exists to prevent.
// Why *deterministic* jitter: the whole repo's chaos story rests on
// reproducibility (util/fault.h fires as a pure function of its inputs);
// a wall-clock- or random_device-seeded jitter would make every hostile
// soak unrepeatable. Each Backoff derives its delays purely from (seed,
// attempt index) via a splitmix64 mix, so two runs of the same client
// name produce the same schedule while two *different* clients decorrelate
// completely.
//
// Schedule: delay_n = clamp(initial * 2^n, initial, max) scaled by a
// jitter factor drawn uniformly from [1 - jitter, 1]. With jitter = 0 the
// sequence is the classic deterministic doubling ramp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "util/seal.h"

namespace ps::util {

class Backoff {
 public:
  struct Options {
    std::int64_t initial_ms = 2;   ///< first delay (doubles from here)
    std::int64_t max_ms = 200;     ///< ceiling the doubling clamps to
    double jitter = 0.5;           ///< delay is scaled by [1 - jitter, 1]
    std::uint64_t seed = 0;        ///< decorrelates fleets; same seed = same schedule
  };

  constexpr Backoff() = default;
  explicit constexpr Backoff(const Options& options) : options_(options) {}

  /// The next delay in the schedule, in milliseconds (never < 1 so a
  /// caller can sleep it blindly). Advances the attempt counter.
  std::int64_t next_ms() {
    const std::uint64_t n = attempts_++;
    std::int64_t base = options_.initial_ms;
    // Shift with saturation: 2^63 ms is ~290 million years, so any shift
    // that would overflow just pins to the cap.
    if (n < 62 && base <= (options_.max_ms >> std::min<std::uint64_t>(n, 62))) {
      base <<= n;
    } else {
      base = options_.max_ms;
    }
    base = std::clamp<std::int64_t>(base, 1, std::max<std::int64_t>(
                                               options_.max_ms, 1));
    const double factor = 1.0 - options_.jitter * unit(options_.seed, n);
    const auto jittered = static_cast<std::int64_t>(
        static_cast<double>(base) * factor);
    return std::max<std::int64_t>(jittered, 1);
  }

  /// Restart the schedule (a successful publish resets the ramp).
  void reset() { attempts_ = 0; }

  std::uint64_t attempts() const { return attempts_; }

  /// splitmix64 of (seed, n) mapped to uniform [0, 1) — pure and
  /// stateless. (The fault trigger mixes with FNV-1a instead.)
  static double unit(std::uint64_t seed, std::uint64_t n) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (n + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    // Top 53 bits → exact in a double, bias-free.
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

  /// Stable seed from a client name (FNV-1a), so a named client keeps the
  /// same jitter schedule across restarts without any persisted state.
  static std::uint64_t seed_from_name(std::string_view name) {
    return fnv1a_bytes(name);
  }

 private:
  Options options_;
  std::uint64_t attempts_ = 0;
};

}  // namespace ps::util
