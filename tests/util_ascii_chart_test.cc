#include "util/ascii_chart.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace ps::util::ascii {
namespace {

TEST(StackedChart, RendersLayersAndLegend) {
  std::vector<std::int64_t> times{0, 1000, 2000, 3000};
  std::vector<Layer> layers{
      {"idle", '.', {10, 10, 10, 10}},
      {"busy", '#', {0, 5, 10, 5}},
  };
  ChartOptions options;
  options.width = 20;
  options.height = 8;
  std::string chart = stacked_chart(times, layers, options);
  EXPECT_NE(chart.find('#'), std::string::npos);
  EXPECT_NE(chart.find('.'), std::string::npos);
  EXPECT_NE(chart.find("[#]=busy"), std::string::npos);
  EXPECT_NE(chart.find("[.]=idle"), std::string::npos);
}

TEST(StackedChart, RespectsExplicitYMax) {
  std::vector<std::int64_t> times{0, 1000};
  std::vector<Layer> layers{{"x", '#', {1, 1}}};
  ChartOptions options;
  options.width = 10;
  options.height = 10;
  options.y_max = 100.0;  // tiny values: almost no fill
  std::string chart = stacked_chart(times, layers, options);
  std::size_t fills = 0;
  for (char c : chart) {
    if (c == '#') ++fills;
  }
  // 1/100 of 10 rows rounds to 0 filled rows per column; only the legend
  // contains '#'.
  EXPECT_LE(fills, 2u);
}

TEST(StackedChart, ValidatesInput) {
  std::vector<std::int64_t> times{0, 1000};
  EXPECT_THROW((void)stacked_chart({}, {{"x", '#', {}}}, {}), CheckError);
  EXPECT_THROW((void)stacked_chart(times, {}, {}), CheckError);
  EXPECT_THROW((void)stacked_chart(times, {{"x", '#', {1.0}}}, {}), CheckError);
  std::vector<std::int64_t> unsorted{1000, 0};
  EXPECT_THROW((void)stacked_chart(unsorted, {{"x", '#', {1.0, 2.0}}}, {}), CheckError);
}

TEST(StackedChart, StepSemanticsHoldBetweenSamples) {
  // Sparse samples: a long flat plateau then a drop; every column should
  // paint something (no holes where buckets are empty).
  std::vector<std::int64_t> times{0, 100000};
  std::vector<Layer> layers{{"x", '#', {5, 1}}};
  ChartOptions options;
  options.width = 30;
  options.height = 5;
  std::string chart = stacked_chart(times, layers, options);
  // Count columns with at least one '#': expect all 30.
  std::size_t fills = 0;
  for (char c : chart) {
    if (c == '#') ++fills;
  }
  EXPECT_GE(fills, 30u);
}

}  // namespace
}  // namespace ps::util::ascii
