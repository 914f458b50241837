#include "cluster/degradation.h"

#include <gtest/gtest.h>

#include "cluster/curie.h"
#include "util/check.h"

namespace ps::cluster {
namespace {

class WalltimeTest : public ::testing::Test {
 protected:
  cluster::FrequencyTable table_ = cluster::curie::frequency_table();
  DegradationModel model_{table_, 1.63};
};

TEST_F(WalltimeTest, EndpointsOfLinearInterpolation) {
  EXPECT_DOUBLE_EQ(model_.factor(table_.max_index()), 1.0);
  EXPECT_DOUBLE_EQ(model_.factor(table_.min_index()), 1.63);
}

TEST_F(WalltimeTest, PaperMixValueAt2GHz) {
  // The paper uses 1.29 for MIX (floor 2.0 GHz); linear interpolation of
  // 1.63 over the 1.2-2.7 span gives 1 + 0.63*(0.7/1.5) = 1.294.
  auto idx = table_.lowest_at_or_above(2.0).value();
  EXPECT_NEAR(model_.factor(idx), 1.29, 0.005);
}

TEST_F(WalltimeTest, MonotonicallyDecreasingWithFrequency) {
  for (cluster::FreqIndex f = 1; f < table_.size(); ++f) {
    EXPECT_LT(model_.factor(f), model_.factor(f - 1));
  }
}

TEST_F(WalltimeTest, AppSpecificDegmin) {
  // linpack's 2.14 at the minimum frequency.
  EXPECT_DOUBLE_EQ(model_.factor(0, 2.14), 2.14);
  EXPECT_DOUBLE_EQ(model_.factor(table_.max_index(), 2.14), 1.0);
  // Degradation 1.0 = no slowdown anywhere.
  for (cluster::FreqIndex f = 0; f < table_.size(); ++f) {
    EXPECT_DOUBLE_EQ(model_.factor(f, 1.0), 1.0);
  }
}

TEST_F(WalltimeTest, FactorAtArbitraryGhzClampsToSpan) {
  EXPECT_DOUBLE_EQ(model_.factor_at_ghz(2.7, 1.63), 1.0);
  EXPECT_DOUBLE_EQ(model_.factor_at_ghz(1.2, 1.63), 1.63);
  EXPECT_DOUBLE_EQ(model_.factor_at_ghz(3.5, 1.63), 1.0);   // above span
  EXPECT_DOUBLE_EQ(model_.factor_at_ghz(0.5, 1.63), 1.63);  // below span
}

TEST_F(WalltimeTest, InvalidInputsRejected) {
  EXPECT_THROW(DegradationModel(table_, 0.5), ps::CheckError);
  EXPECT_THROW((void)model_.factor(99), ps::CheckError);
  EXPECT_THROW((void)model_.factor(0, 0.5), ps::CheckError);
}

TEST_F(WalltimeTest, SingleFrequencyTableIsAlwaysOne) {
  cluster::FrequencyTable single({{2.0, 250.0}});
  DegradationModel m(single, 1.63);
  EXPECT_DOUBLE_EQ(m.factor(0), 1.0);
}

}  // namespace
}  // namespace ps::cluster
