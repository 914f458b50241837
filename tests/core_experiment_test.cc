// Scenario runner plumbing: config handling, width scaling, cap placement,
// horizon override and result bookkeeping.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"

namespace ps::core {
namespace {

workload::GeneratorParams tiny_workload() {
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "exp-test";
  params.span = sim::hours(1);
  params.job_count = 300;
  params.w_huge = 0.0;
  return params;
}

TEST(Experiment, DefaultsToProfileSpanAsHorizon) {
  ScenarioConfig config;
  config.custom_workload = tiny_workload();
  config.racks = 2;
  ScenarioResult r = run_scenario(config);
  EXPECT_EQ(r.summary.to, sim::hours(1));
  EXPECT_EQ(r.summary.from, 0);
  EXPECT_EQ(r.stats.submitted, 300u);
}

TEST(Experiment, HorizonOverrideExtendsTheRun) {
  ScenarioConfig config;
  config.custom_workload = tiny_workload();
  config.racks = 2;
  config.horizon = sim::hours(2);
  ScenarioResult r = run_scenario(config);
  EXPECT_EQ(r.summary.to, sim::hours(2));
  // With an extra empty hour the queue drains further.
  EXPECT_GE(r.stats.completed + r.stats.killed, 290u);
}

TEST(Experiment, CapWindowCenteredByDefault) {
  ScenarioConfig config;
  config.custom_workload = tiny_workload();
  config.racks = 2;
  config.powercap.policy = Policy::Shut;
  config.cap_lambda = 0.6;
  ScenarioResult r = run_scenario(config);
  EXPECT_GT(r.cap_watts, 0.0);
  EXPECT_EQ(r.cap_end - r.cap_start, sim::hours(1));
  EXPECT_EQ(r.cap_start, (sim::hours(1) - sim::hours(1)) / 2);  // centered
  EXPECT_NEAR(r.cap_watts, 0.6 * r.max_cluster_watts, 1e-6);
}

TEST(Experiment, ExplicitCapPlacementRespected) {
  ScenarioConfig config;
  config.custom_workload = tiny_workload();
  config.racks = 2;
  config.powercap.policy = Policy::Shut;
  config.cap_lambda = 0.6;
  config.cap_start = sim::minutes(10);
  config.cap_duration = sim::minutes(20);
  ScenarioResult r = run_scenario(config);
  EXPECT_EQ(r.cap_start, sim::minutes(10));
  EXPECT_EQ(r.cap_end, sim::minutes(30));
}

TEST(Experiment, SingleCapWindowNeedsAPositiveDuration) {
  // The single window is planned as a one-window CapWindow schedule, where
  // a 0 duration would mean open-ended; the scenario refuses it instead.
  for (sim::Duration duration : {sim::Duration{0}, -sim::minutes(5)}) {
    ScenarioConfig config;
    config.custom_workload = tiny_workload();
    config.racks = 2;
    config.powercap.policy = Policy::Shut;
    config.cap_lambda = 0.6;
    config.cap_start = sim::minutes(10);
    config.cap_duration = duration;
    EXPECT_THROW(run_scenario(config), CheckError) << duration;
  }
}

TEST(Experiment, SingleCapWindowEndMustFitSimTime) {
  // cap_start + cap_duration is the window end the replay computes; one
  // past sim::kTimeMax was signed overflow. A negative start centres the
  // window and never overflows.
  ScenarioConfig config;
  config.cap_lambda = 0.6;
  config.cap_duration = sim::hours(1);
  config.cap_start = sim::kTimeMax - sim::hours(1);
  EXPECT_NO_THROW(check_single_cap(config));
  config.cap_start += 1;
  EXPECT_THROW(check_single_cap(config), CheckError);
  config.cap_start = sim::kTimeMax;
  EXPECT_THROW(check_single_cap(config), CheckError);
  config.cap_start = -1;
  EXPECT_NO_THROW(check_single_cap(config));
}

TEST(Experiment, SingleCapLambdaMustBeFiniteAndPositive) {
  // A NaN fraction used to compare false against 1.0 and replay uncapped;
  // zero and negative fractions failed only once the window was priced.
  for (double lambda : {0.0, -0.5, std::nan("")}) {
    ScenarioConfig config;
    config.custom_workload = tiny_workload();
    config.racks = 2;
    config.powercap.policy = Policy::Shut;
    config.cap_lambda = lambda;
    EXPECT_THROW(run_scenario(config), CheckError) << lambda;
    EXPECT_THROW(check_single_cap(config), CheckError) << lambda;
  }
}

TEST(Experiment, NoCapWhenLambdaIsOne) {
  ScenarioConfig config;
  config.custom_workload = tiny_workload();
  config.racks = 2;
  config.powercap.policy = Policy::Shut;
  config.cap_lambda = 1.0;
  ScenarioResult r = run_scenario(config);
  EXPECT_EQ(r.cap_watts, 0.0);
  EXPECT_FALSE(r.has_plan);
}

TEST(Experiment, JobWidthsScaleWithClusterSize) {
  // At 1 rack (1/56 of Curie) the generator's widest non-huge jobs
  // (16 384 cores) scale to ~293 cores = 19 nodes, so everything fits and
  // nothing is rejected.
  ScenarioConfig config;
  config.custom_workload = tiny_workload();
  config.racks = 1;
  ScenarioResult r = run_scenario(config);
  EXPECT_EQ(r.stats.rejected, 0u);
  EXPECT_EQ(r.total_cores, 90 * 16);
}

TEST(Experiment, ResultCarriesOfflinePlanForShut) {
  ScenarioConfig config;
  config.custom_workload = tiny_workload();
  config.racks = 2;
  config.powercap.policy = Policy::Shut;
  config.cap_lambda = 0.5;
  ScenarioResult r = run_scenario(config);
  ASSERT_TRUE(r.has_plan);
  EXPECT_EQ(r.plan.split.mechanism, model::Mechanism::SwitchOffOnly);
  EXPECT_FALSE(r.plan.selection.nodes.empty());
}

TEST(Experiment, SamplesCoverTheWholeRun) {
  ScenarioConfig config;
  config.custom_workload = tiny_workload();
  config.racks = 2;
  ScenarioResult r = run_scenario(config);
  ASSERT_FALSE(r.samples.empty());
  EXPECT_EQ(r.samples.front().t, 0);
  EXPECT_EQ(r.samples.back().t, sim::hours(1));
}

TEST(Experiment, InvalidRacksRejected) {
  ScenarioConfig config;
  config.racks = 0;
  EXPECT_THROW((void)run_scenario(config), ps::CheckError);
}

}  // namespace
}  // namespace ps::core
