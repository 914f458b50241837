#include "util/rng.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace ps::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform_int(0, 1'000'000) != b.uniform_int(0, 1'000'000)) ++differences;
  }
  EXPECT_GT(differences, 15);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealHalfOpen) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(1.0, 2.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 2.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(Rng, LognormalMedianApproximatesExpMu) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.lognormal(std::log(100.0), 0.3));
  std::sort(samples.begin(), samples.end());
  double median = samples[samples.size() / 2];
  EXPECT_NEAR(median, 100.0, 5.0);
}

TEST(Rng, ExponentialMeanApproximatesRequest) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(42.0);
  EXPECT_NEAR(sum / n, 42.0, 2.0);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(19);
  WeightedIndex weights({0.0, 1.0, 3.0});
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 12000; ++i) ++hits[rng.weighted_index(weights)];
  EXPECT_EQ(hits[0], 0);
  EXPECT_NEAR(static_cast<double>(hits[2]) / hits[1], 3.0, 0.3);
}

// The prebuilt table must draw exactly the stream a fresh
// std::discrete_distribution per draw gives, also when other draws
// interleave: every synthetic workload golden depends on these draws.
TEST(Rng, WeightedIndexDrawsMatchAFreshDistribution) {
  const std::vector<double> weights{0.5, 2.0, 0.0, 7.25, 1.0};
  WeightedIndex table(weights);
  Rng prebuilt(29);
  Rng fresh(29);
  for (int i = 0; i < 5000; ++i) {
    std::size_t expected = std::discrete_distribution<std::size_t>(
        weights.begin(), weights.end())(fresh.engine());
    ASSERT_EQ(prebuilt.weighted_index(table), expected) << "draw " << i;
    ASSERT_EQ(prebuilt.uniform(0.0, 1.0), fresh.uniform(0.0, 1.0));
  }
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(23);
  EXPECT_THROW((void)rng.uniform_int(5, 3), CheckError);
  EXPECT_THROW((void)rng.exponential_mean(0.0), CheckError);
  EXPECT_THROW(WeightedIndex({}), CheckError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  // Child stream differs from a fresh parent continuation.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (child.uniform_int(0, 1 << 30) != parent.uniform_int(0, 1 << 30)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace ps::util
