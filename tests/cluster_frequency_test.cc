#include "cluster/frequency.h"

#include <gtest/gtest.h>

#include "cluster/curie.h"
#include "util/check.h"

namespace ps::cluster {
namespace {

TEST(FrequencyTable, CurieTableMatchesFig4) {
  FrequencyTable table = curie::frequency_table();
  ASSERT_EQ(table.size(), 8u);
  EXPECT_DOUBLE_EQ(table.min().ghz, 1.2);
  EXPECT_DOUBLE_EQ(table.min().watts, 193.0);
  EXPECT_DOUBLE_EQ(table.max().ghz, 2.7);
  EXPECT_DOUBLE_EQ(table.max().watts, 358.0);
  const double expected_watts[] = {193, 213, 234, 248, 269, 289, 317, 358};
  for (FreqIndex f = 0; f < table.size(); ++f) {
    EXPECT_DOUBLE_EQ(table.watts(f), expected_watts[f]) << "index " << f;
  }
}

TEST(FrequencyTable, SortsInput) {
  FrequencyTable table({{2.0, 250.0}, {1.0, 100.0}, {1.5, 180.0}});
  EXPECT_DOUBLE_EQ(table.ghz(0), 1.0);
  EXPECT_DOUBLE_EQ(table.ghz(1), 1.5);
  EXPECT_DOUBLE_EQ(table.ghz(2), 2.0);
}

TEST(FrequencyTable, LowestAtOrAbove) {
  FrequencyTable table = curie::frequency_table();
  EXPECT_EQ(table.lowest_at_or_above(2.0), 4u);
  EXPECT_EQ(table.lowest_at_or_above(2.7), 7u);
  EXPECT_EQ(table.lowest_at_or_above(1.95), 4u);
  EXPECT_EQ(table.lowest_at_or_above(0.1), 0u);
  EXPECT_FALSE(table.lowest_at_or_above(3.0).has_value());
}

TEST(FrequencyTable, Name) {
  FrequencyTable table = curie::frequency_table();
  EXPECT_EQ(table.name(7), "2.7 GHz");
  EXPECT_EQ(table.name(0), "1.2 GHz");
}

TEST(FrequencyTable, RejectsBadInput) {
  EXPECT_THROW(FrequencyTable({}), CheckError);
  EXPECT_THROW(FrequencyTable({{1.0, 100.0}, {1.0, 120.0}}), CheckError);
  EXPECT_THROW(FrequencyTable({{0.0, 100.0}}), CheckError);
  EXPECT_THROW(FrequencyTable({{1.0, 0.0}}), CheckError);
}

TEST(FrequencyTable, LevelOutOfRangeThrows) {
  FrequencyTable table({{1.0, 100.0}});
  EXPECT_THROW((void)table.level(1), CheckError);
}

}  // namespace
}  // namespace ps::cluster
