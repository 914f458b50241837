// FairShare keeps usage in one rebased time frame and prices a user without
// `now` or a total; ReferenceFairShare decays every user to `now` and sums
// them on each query. Seeded random charge streams drive both: every
// factor must agree to a relative 1e-9, stay finite, and keep its bits
// across a zero charge, rebase or not.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "fairshare_reference.h"
#include "rjms/fairshare.h"
#include "util/rng.h"

namespace ps::rjms {
namespace {

constexpr std::int32_t kUsers = 60;
constexpr int kCharges = 12000;
// FairShare rebases once a charge lands this many half-lives past its frame.
constexpr std::int64_t kRebaseHalfLives = 64;

std::vector<double> all_factors(const FairShare& fs) {
  std::vector<double> factors;
  for (std::int32_t user = 0; user <= kUsers; ++user) factors.push_back(fs.factor(user));
  return factors;
}

class FairShareEquivalence : public ::testing::TestWithParam<sim::Duration> {};

TEST_P(FairShareEquivalence, MatchesReferenceOnRandomChargeStreams) {
  const sim::Duration half_life = GetParam();
  util::Rng rng(0x5eed + static_cast<std::uint64_t>(half_life));
  FairShare fs(half_life);
  ReferenceFairShare reference(half_life);
  std::vector<std::int32_t> known;
  std::vector<bool> seen(kUsers, false);
  sim::Time now = 0;
  int long_gap_zero_charges = 0;
  for (int i = 0; i < kCharges; ++i) {
    // Mostly up to two half-lives apart, some at one instant, and now and
    // then a gap long enough that the next charge must rebase.
    double roll = rng.uniform(0.0, 1.0);
    bool long_gap = roll < 0.01;
    if (long_gap) {
      now += half_life * rng.uniform_int(kRebaseHalfLives, 200);
    } else if (roll > 0.2) {
      now += rng.uniform_int(0, 2 * half_life);
    }

    if (!known.empty() && rng.chance(0.1)) {
      // A zero charge to a known user changes no usage.
      std::int32_t user = known[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(known.size()) - 1))];
      std::vector<double> before = all_factors(fs);
      fs.charge(user, 0.0, now);
      reference.charge(user, 0.0, now);
      ASSERT_EQ(all_factors(fs), before) << "zero charge " << i << " at " << now;
      long_gap_zero_charges += long_gap ? 1 : 0;
      continue;
    }

    // Low ids are charged more often; amounts span seven decades.
    auto user = static_cast<std::int32_t>(rng.uniform_int(0, rng.uniform_int(0, kUsers - 1)));
    double core_seconds = std::exp(rng.uniform(0.0, std::log(1e7)));
    fs.charge(user, core_seconds, now);
    reference.charge(user, core_seconds, now);
    if (!seen[static_cast<std::size_t>(user)]) {
      seen[static_cast<std::size_t>(user)] = true;
      known.push_back(user);
    }

    if (i % 10 != 0) continue;
    std::vector<double> factors = all_factors(fs);
    for (std::int32_t u = 0; u <= kUsers; ++u) {
      double got = factors[static_cast<std::size_t>(u)];
      double want = reference.factor(u, now);
      ASSERT_TRUE(std::isfinite(got) && got > 0.0 && got <= 1.0)
          << "user " << u << " charge " << i << ": " << got;
      ASSERT_LE(std::abs(got - want), 1e-9 * want)
          << "user " << u << " charge " << i << ": " << got << " vs " << want;
    }
  }
  EXPECT_GE(now / half_life, 10'000) << "span in half-lives";
  EXPECT_GE(known.size(), 50u);
  EXPECT_GE(long_gap_zero_charges, 5) << "zero charges that had to rebase";
}

INSTANTIATE_TEST_SUITE_P(HalfLives, FairShareEquivalence,
                         ::testing::Values(sim::seconds(1), sim::hours(1), sim::hours(7 * 24)),
                         [](const ::testing::TestParamInfo<sim::Duration>& info) {
                           return std::to_string(info.param / 1000) + "s";
                         });

}  // namespace
}  // namespace ps::rjms
