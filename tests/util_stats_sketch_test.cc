// QuantileSketch property fence: against exact sorted references over
// seeded random streams, every reported quantile must respect the
// advertised relative rank-error bound, and the footprint must stay O(1)
// from the 10th sample to the 10^6th.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/wire.h"

namespace ps::util {
namespace {

constexpr double kQuantiles[] = {0.0,  0.01, 0.1,  0.25, 0.5,
                                 0.75, 0.9,  0.95, 0.99, 0.999, 1.0};

double exact_nearest_rank(const std::vector<double>& sorted, double q) {
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

void expect_within_bound(const QuantileSketch& sketch,
                         std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  for (double q : kQuantiles) {
    double exact = exact_nearest_rank(samples, q);
    double estimate = sketch.quantile(q);
    // The bucket geometry guarantees relative error <= (gamma-1)/2 for any
    // sample inside [min_value, max_value]; tiny epsilon for pow() noise.
    double bound = sketch.error_bound() * 1.0001 + 1e-12;
    EXPECT_LE(std::abs(estimate - exact), exact * bound)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(QuantileSketch, UniformStreamWithinErrorBound) {
  Rng rng(20250808);
  QuantileSketch sketch(0.01);
  std::vector<double> samples;
  for (int i = 0; i < 200'000; ++i) {
    double x = rng.uniform(0.5, 50'000.0);
    sketch.add(x);
    samples.push_back(x);
  }
  expect_within_bound(sketch, std::move(samples));
}

TEST(QuantileSketch, LognormalStreamWithinErrorBound) {
  // Heavy-tailed like real admission latencies: most samples near the
  // median, a tail orders of magnitude out.
  Rng rng(7);
  QuantileSketch sketch(0.01);
  std::vector<double> samples;
  for (int i = 0; i < 200'000; ++i) {
    double x = rng.lognormal(2.0, 1.5);
    sketch.add(x);
    samples.push_back(x);
  }
  expect_within_bound(sketch, std::move(samples));
}

TEST(QuantileSketch, CoarserSketchLooserBoundStillHolds) {
  Rng rng(99);
  QuantileSketch sketch(0.05);  // 5 % error: ~5x fewer buckets
  EXPECT_NEAR(sketch.error_bound(), 0.05, 0.01);
  std::vector<double> samples;
  for (int i = 0; i < 100'000; ++i) {
    // Offset keeps every sample above the sketch's 1e-3 trackable floor —
    // the bound is only advertised inside [min_value, max_value].
    double x = rng.exponential_mean(250.0) + 0.01;
    sketch.add(x);
    samples.push_back(x);
  }
  expect_within_bound(sketch, std::move(samples));
}

TEST(QuantileSketch, FootprintConstantAcrossMillionSamples) {
  Rng rng(42);
  QuantileSketch sketch(0.01);
  for (int i = 0; i < 10; ++i) sketch.add(rng.lognormal(3.0, 2.0));
  const std::size_t footprint_small = sketch.footprint_bytes();
  const std::size_t buckets_small = sketch.bucket_count();
  for (int i = 0; i < 1'000'000; ++i) sketch.add(rng.lognormal(3.0, 2.0));
  EXPECT_EQ(sketch.count(), 1'000'010u);
  EXPECT_EQ(sketch.footprint_bytes(), footprint_small);
  EXPECT_EQ(sketch.bucket_count(), buckets_small);
  // ~2400 buckets at 1 % over [1e-3, 1e12]: tens of kilobytes, not O(n).
  EXPECT_LT(sketch.footprint_bytes(), 64u * 1024u);
}

TEST(QuantileSketch, ExactExtremesCountAndSum) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.quantile(0.5), 0.0);  // empty
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
  sketch.add(3.0);
  sketch.add(1.0);
  sketch.add(100.0);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.sum(), 104.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 1.0);   // exact, outside the buckets
  EXPECT_DOUBLE_EQ(sketch.max(), 100.0);
}

TEST(QuantileSketch, OutOfRangeSamplesSaturateLoudlyButSafely) {
  QuantileSketch sketch(0.01, 1.0, 1000.0);
  sketch.add(1e-9);  // below min_value: bucket 0, reported as min_value
  sketch.add(1e9);   // above max_value: top bucket saturates
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 1.0);
  // The saturated top bucket under-reports; the exact max is still exact.
  EXPECT_DOUBLE_EQ(sketch.max(), 1e9);
  EXPECT_LE(sketch.quantile(1.0), sketch.max());
}

TEST(QuantileSketch, MergeMatchesSingleStream) {
  Rng rng(11);
  QuantileSketch merged(0.01);
  QuantileSketch a(0.01);
  QuantileSketch b(0.01);
  for (int i = 0; i < 50'000; ++i) {
    double x = rng.lognormal(1.0, 1.0);
    merged.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), merged.count());
  // Summation order differs between the split and single streams; only the
  // rounding tail may diverge.
  EXPECT_NEAR(a.sum(), merged.sum(), std::abs(merged.sum()) * 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), merged.min());
  EXPECT_DOUBLE_EQ(a.max(), merged.max());
  for (double q : kQuantiles) {
    EXPECT_DOUBLE_EQ(a.quantile(q), merged.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeRejectsMismatchedGeometry) {
  QuantileSketch a(0.01);
  QuantileSketch b(0.05);
  EXPECT_THROW(a.merge(b), CheckError);
}

// --- qsketch walk round trip (the serve-checkpoint embedding) ---------------

std::string encode_sketch(const QuantileSketch& sketch) {
  return encode(sketch, qsketch<Writer, const QuantileSketch>, /*sealed=*/false);
}

QuantileSketch decode_sketch(std::string_view text) {
  return decode(text, qsketch<Reader, QuantileSketch>, /*sealed=*/false);
}

TEST(QuantileSketchSerde, RoundTripReportsIdenticalQuantiles) {
  Rng rng(20260808);
  QuantileSketch sketch(0.01);
  std::vector<double> samples;
  for (int i = 0; i < 100'000; ++i) {
    double x = rng.lognormal(2.0, 1.5);
    sketch.add(x);
    samples.push_back(x);
  }
  QuantileSketch restored = decode_sketch(encode_sketch(sketch));
  EXPECT_EQ(restored.count(), sketch.count());
  EXPECT_DOUBLE_EQ(restored.sum(), sketch.sum());
  EXPECT_DOUBLE_EQ(restored.min(), sketch.min());
  EXPECT_DOUBLE_EQ(restored.max(), sketch.max());
  EXPECT_DOUBLE_EQ(restored.error_bound(), sketch.error_bound());
  EXPECT_EQ(restored.bucket_count(), sketch.bucket_count());
  for (double q : kQuantiles) {
    EXPECT_DOUBLE_EQ(restored.quantile(q), sketch.quantile(q)) << "q=" << q;
  }
  // Byte-identical re-serialization: the checkpoint diff of an idle serve
  // loop is empty.
  EXPECT_EQ(encode_sketch(restored), encode_sketch(sketch));
  // And the restored sketch still honors the advertised rank-error bound
  // against the exact sorted reference.
  expect_within_bound(restored, std::move(samples));
}

TEST(QuantileSketchSerde, MergeAfterRoundTripMatchesDirectMergeWithinBound) {
  // The recovery scenario: sketch `a` survives inside a checkpoint while
  // fresh samples accumulate in `b`; the merged result must be identical to
  // a merge that never went through text, and must still satisfy the
  // rank-error bound over the union stream.
  Rng rng(314159);
  QuantileSketch a(0.01);
  QuantileSketch b(0.01);
  std::vector<double> all;
  for (int i = 0; i < 60'000; ++i) {
    double x = rng.lognormal(1.5, 1.2);
    (i < 30'000 ? a : b).add(x);
    all.push_back(x);
  }
  QuantileSketch direct = a;
  direct.merge(b);
  QuantileSketch restored = decode_sketch(encode_sketch(a));
  restored.merge(b);
  EXPECT_EQ(restored.count(), direct.count());
  EXPECT_DOUBLE_EQ(restored.sum(), direct.sum());
  for (double q : kQuantiles) {
    EXPECT_DOUBLE_EQ(restored.quantile(q), direct.quantile(q)) << "q=" << q;
  }
  expect_within_bound(restored, std::move(all));
}

TEST(QuantileSketchSerde, EmptySketchRoundTrips) {
  QuantileSketch sketch(0.05, 1.0, 1e6);
  QuantileSketch restored = decode_sketch(encode_sketch(sketch));
  EXPECT_EQ(restored.count(), 0u);
  EXPECT_EQ(restored.quantile(0.5), 0.0);
  EXPECT_EQ(restored.bucket_count(), sketch.bucket_count());
  QuantileSketch live(0.05, 1.0, 1e6);
  live.add(42.0);
  restored.merge(live);  // geometry survived the trip
  EXPECT_EQ(restored.count(), 1u);
}

TEST(QuantileSketchSerde, MalformedInputThrows) {
  QuantileSketch sketch;
  sketch.add(5.0);
  std::string good = encode_sketch(sketch);
  EXPECT_THROW(decode_sketch(""), SerdeError);
  EXPECT_THROW(decode_sketch("begin qsketch2" + good.substr(13)), SerdeError);
  EXPECT_THROW(decode_sketch(good.substr(0, good.size() / 2)), SerdeError);
  EXPECT_THROW(decode_sketch(good + "bucket 7 1\n"), SerdeError);
  // A corrupted bucket count no longer sums to the total.
  std::string tampered = good;
  tampered.replace(tampered.find(" 1\nend qsketch"), 2, " 2");
  EXPECT_THROW(decode_sketch(tampered), SerdeError);
}

}  // namespace
}  // namespace ps::util
