#include "rjms/fairshare.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace ps::rjms {
namespace {

// The factor a scheduling pass prices `user` with at `now`.
double factor(const FairShare& fs, std::int32_t user, sim::Time now) {
  return fs.factor(user, now, fs.total_usage(now));
}

TEST(FairShare, UnusedUserGetsFullFactor) {
  FairShare fs;
  EXPECT_DOUBLE_EQ(factor(fs, 1, 0), 1.0);
}

TEST(FairShare, HeavyUserPenalized) {
  FairShare fs;
  fs.charge(1, 1e6, 0);
  fs.charge(2, 1.0, 0);
  EXPECT_LT(factor(fs, 1, 0), factor(fs, 2, 0));
  EXPECT_GT(factor(fs, 2, 0), 0.9);
}

TEST(FairShare, EqualUsageEqualFactor) {
  FairShare fs;
  fs.charge(1, 500.0, 0);
  fs.charge(2, 500.0, 0);
  EXPECT_DOUBLE_EQ(factor(fs, 1, 0), factor(fs, 2, 0));
  // Two users, each at exactly their share: factor = 2^-1 = 0.5.
  EXPECT_DOUBLE_EQ(factor(fs, 1, 0), 0.5);
}

TEST(FairShare, UsageDecaysWithHalfLife) {
  FairShare fs(sim::hours(1));
  fs.charge(1, 1000.0, 0);
  EXPECT_NEAR(fs.total_usage(sim::hours(1)), 500.0, 1e-9);
  EXPECT_NEAR(fs.total_usage(sim::hours(2)), 250.0, 1e-9);
}

TEST(FairShare, DecayRestoresFactorOverTime) {
  FairShare fs(sim::hours(1));
  fs.charge(1, 1e6, 0);
  fs.charge(2, 1.0, 0);
  double early = factor(fs, 1, 0);
  // After many half-lives user 1's usage is negligible *relative to user 2's
  // equally decayed usage*... both decay equally, so the ratio persists;
  // what recovers the factor is new usage by others.
  fs.charge(2, 1e6, sim::hours(10));
  double later = factor(fs, 1, sim::hours(10));
  EXPECT_GT(later, early);
}

TEST(FairShare, ChargeAccumulates) {
  FairShare fs;
  fs.charge(1, 100.0, 0);
  fs.charge(1, 200.0, 0);
  EXPECT_NEAR(fs.total_usage(0), 300.0, 1e-9);
  EXPECT_EQ(fs.user_count(), 1u);
}

TEST(FairShare, NegativeChargeRejected) {
  FairShare fs;
  EXPECT_THROW(fs.charge(1, -5.0, 0), CheckError);
  EXPECT_THROW(FairShare(0), CheckError);
}

TEST(FairShare, FactorBounded) {
  FairShare fs;
  fs.charge(1, 1e9, 0);
  double f = factor(fs, 1, 0);
  EXPECT_GT(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST(FairShare, FactorReusesTheTotalsDecayBitIdentically) {
  // total_usage keeps each user's decayed usage for the factors priced
  // after it at the same instant; they must equal a fresh decay, and a
  // charge must drop the kept value.
  FairShare fs(sim::hours(2));
  fs.charge(1, 3.5e5, 0);
  fs.charge(2, 1.2e4, sim::minutes(17));
  fs.charge(3, 7.7e6, sim::hours(1));
  for (sim::Time t : {sim::hours(1), sim::hours(5) + 13, sim::hours(30)}) {
    FairShare fresh = fs;  // kept values, if any, are for an earlier instant
    double total = fs.total_usage(t);
    for (std::int32_t user : {1, 2, 3, 99}) {
      EXPECT_EQ(fs.factor(user, t, total), fresh.factor(user, t, total))
          << "user " << user << " t " << t;
    }
  }
  sim::Time t = sim::hours(31);
  double total = fs.total_usage(t);
  double before = fs.factor(2, t, total);
  fs.charge(2, 5e5, t);
  EXPECT_LT(fs.factor(2, t, total), before);
}

}  // namespace
}  // namespace ps::rjms
