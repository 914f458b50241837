#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"

namespace ps::util {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, NumericallyStableAroundLargeOffset) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0}), 2.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile({}, 0.5), CheckError);
  EXPECT_THROW((void)percentile({1.0}, 1.5), CheckError);
}

}  // namespace
}  // namespace ps::util
