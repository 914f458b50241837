// Application models: degmin calibration, Fig 5 rho values (exact to the
// published precision), Fig 3 curve shapes, and the energy non-monotonicity
// the MIX policy is motivated by.
#include "apps/calibrated_apps.h"

#include <gtest/gtest.h>

#include "cluster/curie.h"
#include "util/check.h"

namespace ps::apps {
namespace {

class AppsTest : public ::testing::Test {
 protected:
  cluster::PowerModel pm_ = cluster::curie::power_model();
};

TEST_F(AppsTest, DegminValuesMatchFig5) {
  EXPECT_DOUBLE_EQ(linpack().degmin(), 2.14);
  EXPECT_DOUBLE_EQ(imb().degmin(), 2.13);
  EXPECT_DOUBLE_EQ(spec_float().degmin(), 1.89);
  EXPECT_DOUBLE_EQ(spec_integer().degmin(), 1.74);
  EXPECT_DOUBLE_EQ(common_value().degmin(), 1.63);
  EXPECT_DOUBLE_EQ(nas_suite().degmin(), 1.5);
  EXPECT_DOUBLE_EQ(stream().degmin(), 1.26);
  EXPECT_DOUBLE_EQ(gromacs().degmin(), 1.16);
  EXPECT_DOUBLE_EQ(crossover().degmin(), 2.27);
}

// The paper's Fig 5 rho column, rounded to 3 decimals.
TEST_F(AppsTest, RhoMatchesFig5Published) {
  EXPECT_NEAR(rho_published(crossover(), pm_), 0.0, 2e-3);       // "0"
  EXPECT_NEAR(rho_published(linpack(), pm_), -0.027, 2e-3);
  EXPECT_NEAR(rho_published(imb(), pm_), -0.029, 2e-3);
  EXPECT_NEAR(rho_published(spec_float(), pm_), -0.088, 3e-3);
  EXPECT_NEAR(rho_published(spec_integer(), pm_), -0.134, 3e-3);
  EXPECT_NEAR(rho_published(common_value(), pm_), -0.174, 2e-3);
  EXPECT_NEAR(rho_published(nas_suite(), pm_), -0.225, 3e-3);
  EXPECT_NEAR(rho_published(stream(), pm_), -0.350, 5e-3);
  EXPECT_NEAR(rho_published(gromacs(), pm_), -0.422, 2e-3);
}

TEST_F(AppsTest, AllMeasuredAppsPreferSwitchOff) {
  // Fig 5: every real benchmark row says "Switch-off" (rho <= 0).
  for (const AppModel& app : measured_apps()) {
    EXPECT_LE(rho_published(app, pm_), 0.0) << app.name();
  }
}

TEST_F(AppsTest, NormalizedTimeEndpoints) {
  const cluster::FrequencyTable& table = pm_.frequencies();
  for (const AppModel& app : fig5_rows()) {
    EXPECT_NEAR(app.normalized_time(table, table.max_index()), 1.0, 1e-12) << app.name();
    EXPECT_NEAR(app.normalized_time(table, table.min_index()), app.degmin(), 1e-9)
        << app.name();
  }
}

TEST_F(AppsTest, NormalizedTimeMonotonicallyDecreasesWithFrequency) {
  const cluster::FrequencyTable& table = pm_.frequencies();
  for (const AppModel& app : measured_apps()) {
    for (cluster::FreqIndex f = 1; f < table.size(); ++f) {
      EXPECT_LT(app.normalized_time(table, f), app.normalized_time(table, f - 1))
          << app.name() << " at index " << f;
    }
  }
}

TEST_F(AppsTest, LinpackPowerCurveIsTheFig4Table) {
  const cluster::FrequencyTable& table = pm_.frequencies();
  AppModel lp = linpack();
  for (cluster::FreqIndex f = 0; f < table.size(); ++f) {
    EXPECT_DOUBLE_EQ(lp.node_watts(pm_, f), table.watts(f));
  }
}

TEST_F(AppsTest, LinpackDrawsTheMostPowerAtEveryFrequency) {
  const cluster::FrequencyTable& table = pm_.frequencies();
  AppModel lp = linpack();
  for (const AppModel& app : {stream(), imb(), gromacs()}) {
    for (cluster::FreqIndex f = 0; f < table.size(); ++f) {
      EXPECT_LE(app.node_watts(pm_, f), lp.node_watts(pm_, f))
          << app.name() << " at index " << f;
    }
  }
}

TEST_F(AppsTest, PowerCurvesIncreaseWithFrequency) {
  const cluster::FrequencyTable& table = pm_.frequencies();
  for (const AppModel& app : measured_apps()) {
    for (cluster::FreqIndex f = 1; f < table.size(); ++f) {
      EXPECT_GT(app.node_watts(pm_, f), app.node_watts(pm_, f - 1)) << app.name();
    }
  }
}

TEST_F(AppsTest, EnergyOptimumSitsBetween2GHzAndMaxForCpuBoundApps) {
  // Paper §VI-B: "the most optimal points are between 2.7 GHz and 2.0 GHz"
  // — the energy/performance trade-off is not monotonic for compute-bound
  // codes, motivating the MIX frequency floor.
  const cluster::FrequencyTable& table = pm_.frequencies();
  auto idx_2ghz = table.lowest_at_or_above(2.0).value();
  for (const AppModel& app : {linpack(), imb()}) {
    cluster::FreqIndex best = app.energy_optimal_freq(pm_);
    EXPECT_GE(best, idx_2ghz) << app.name();
    // Non-monotonic: the minimum frequency is strictly worse than optimum.
    EXPECT_GT(app.relative_energy(pm_, 0), app.relative_energy(pm_, best)) << app.name();
  }
}

TEST_F(AppsTest, RelativeEnergyIsOneAtMaxFrequency) {
  for (const AppModel& app : measured_apps()) {
    EXPECT_DOUBLE_EQ(app.relative_energy(pm_, pm_.frequencies().max_index()), 1.0);
  }
}

TEST_F(AppsTest, ByNameLookup) {
  EXPECT_TRUE(by_name("linpack").has_value());
  EXPECT_TRUE(by_name("LINPACK").has_value());
  EXPECT_TRUE(by_name("stream").has_value());
  EXPECT_TRUE(by_name("gromacs").has_value());
  EXPECT_FALSE(by_name("unknown-app").has_value());
  EXPECT_DOUBLE_EQ(by_name("imb")->degmin(), 2.13);
}

TEST_F(AppsTest, InvalidModelParametersRejected) {
  EXPECT_THROW(AppModel("bad", 0.9, 1.0), CheckError);   // degmin < 1
  EXPECT_THROW(AppModel("bad", 1.5, 0.0), CheckError);   // power_scale 0
  EXPECT_THROW(AppModel("bad", 1.5, 1.5), CheckError);   // power_scale > 1
}

TEST_F(AppsTest, RhoPublishedRawFormula) {
  // rho = 1 - 1/degmin - Pmin/(Pmax - Poff) with Curie numbers.
  double expected = 1.0 - 1.0 / 1.63 - 193.0 / (358.0 - 14.0);
  EXPECT_NEAR(rho_published(1.63, 193.0, 358.0, 14.0), expected, 1e-12);
  EXPECT_THROW((void)rho_published(0.5, 193.0, 358.0, 14.0), CheckError);
  EXPECT_THROW((void)rho_published(1.5, 193.0, 14.0, 358.0), CheckError);
}

}  // namespace
}  // namespace ps::apps
