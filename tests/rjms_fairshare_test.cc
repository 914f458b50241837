#include "rjms/fairshare.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.h"

namespace ps::rjms {
namespace {

TEST(FairShare, UnusedUserGetsFullFactor) {
  FairShare fs;
  EXPECT_DOUBLE_EQ(fs.factor(1), 1.0);
}

TEST(FairShare, HeavyUserPenalized) {
  FairShare fs;
  fs.charge(1, 1e6, 0);
  fs.charge(2, 1.0, 0);
  EXPECT_LT(fs.factor(1), fs.factor(2));
  EXPECT_GT(fs.factor(2), 0.9);
}

TEST(FairShare, EqualUsageEqualFactor) {
  FairShare fs;
  fs.charge(1, 500.0, 0);
  fs.charge(2, 500.0, 0);
  EXPECT_DOUBLE_EQ(fs.factor(1), fs.factor(2));
  // Two users, each at exactly their share: factor = 2^-1 = 0.5.
  EXPECT_DOUBLE_EQ(fs.factor(1), 0.5);
}

TEST(FairShare, UsageDecaysWithHalfLife) {
  // 1000 core-s, 500 one half-life later and 250 two half-lives later are
  // the same decayed usage: three users at their share, 0.5 each.
  FairShare fs(sim::hours(1));
  fs.charge(1, 1000.0, 0);
  fs.charge(2, 500.0, sim::hours(1));
  EXPECT_DOUBLE_EQ(fs.factor(1), 0.5);
  EXPECT_DOUBLE_EQ(fs.factor(2), 0.5);
  fs.charge(3, 250.0, sim::hours(2));
  for (std::int32_t user : {1, 2, 3}) EXPECT_DOUBLE_EQ(fs.factor(user), 0.5) << user;
}

TEST(FairShare, DecayRestoresFactorOverTime) {
  FairShare fs(sim::hours(1));
  fs.charge(1, 1e6, 0);
  fs.charge(2, 1.0, 0);
  double early = fs.factor(1);
  // Both users' usage decays equally, so the ratio, and with it the factor,
  // holds between charges; what recovers the factor is new usage by others.
  fs.charge(2, 1e6, sim::hours(10));
  double later = fs.factor(1);
  EXPECT_GT(later, early);
}

TEST(FairShare, ChargeAccumulates) {
  FairShare fs;
  fs.charge(1, 100.0, 0);
  fs.charge(1, 200.0, 0);
  EXPECT_EQ(fs.user_count(), 1u);
  fs.charge(2, 300.0, 0);
  EXPECT_DOUBLE_EQ(fs.factor(1), 0.5);
  EXPECT_DOUBLE_EQ(fs.factor(2), 0.5);
}

TEST(FairShare, NegativeChargeRejected) {
  FairShare fs;
  EXPECT_THROW(fs.charge(1, -5.0, 0), CheckError);
  EXPECT_THROW(FairShare(0), CheckError);
}

TEST(FairShare, FactorBounded) {
  FairShare fs;
  fs.charge(1, 1e9, 0);
  double f = fs.factor(1);
  EXPECT_GT(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST(FairShare, RebaseMovesNoFactorBit) {
  // A charge 1030 half-lives past the frame rebases it by 2^-1030 (every
  // value stays normal); a zero charge to a known user changes no usage, so
  // every factor keeps its bits.
  FairShare fs(sim::seconds(1));
  fs.charge(1, 3.5e5, 0);
  fs.charge(2, 1.2e4, sim::milliseconds(1700));
  fs.charge(3, 7.7e6, sim::seconds(30) + 13);
  std::vector<double> before;
  for (std::int32_t user : {1, 2, 3, 99}) before.push_back(fs.factor(user));
  fs.charge(2, 0.0, sim::seconds(1030));
  std::vector<double> after;
  for (std::int32_t user : {1, 2, 3, 99}) after.push_back(fs.factor(user));
  EXPECT_EQ(before, after);
  EXPECT_EQ(after.back(), 1.0);
  // A new charge in the rebased frame outweighs the old usage 2^1000 times:
  // it is all of the usage, against a 1/4 share.
  fs.charge(4, 1.0, sim::seconds(1030));
  EXPECT_DOUBLE_EQ(fs.factor(4), 0.0625);
  EXPECT_DOUBLE_EQ(fs.factor(3), 1.0);
}

}  // namespace
}  // namespace ps::rjms
