// Dynamic DVFS extension (paper §VIII future work): re-scaling running
// jobs at cap-window boundaries — the controller primitive and the
// manager-driven boundary behaviour.
#include <gtest/gtest.h>

#include "cluster/curie.h"
#include "core/experiment.h"
#include "core/powercap_manager.h"
#include "metrics/timeseries.h"
#include "util/check.h"

namespace ps::core {
namespace {

rjms::ControllerConfig fcfs_config() {
  rjms::ControllerConfig config;
  config.priority.age = 0.0;
  config.priority.size = 0.0;
  config.priority.fair_share = 0.0;
  return config;
}

workload::JobRequest make_request(std::int64_t id, std::int64_t cores,
                                  sim::Duration runtime, sim::Duration walltime) {
  workload::JobRequest request;
  request.id = id;
  request.requested_cores = cores;
  request.base_runtime = runtime;
  request.requested_walltime = walltime;
  return request;
}

class DynamicDvfsTest : public ::testing::Test {
 protected:
  DynamicDvfsTest()
      : cl_(cluster::curie::make_scaled_cluster(1)),
        controller_(sim_, cl_, fcfs_config()) {}

  PowercapConfig dynamic_config() {
    PowercapConfig config;
    config.policy = Policy::Dvfs;
    config.dynamic_dvfs = true;
    return config;
  }

  sim::Simulator sim_;
  cluster::Cluster cl_;
  rjms::Controller controller_;
};

TEST_F(DynamicDvfsTest, RescalePrimitiveStretchesRemainingTime) {
  // Job runs 1000 s at fmax; at t=400 it is slowed so the remaining time
  // doubles: finish at 400 + 600*2 = 1600 s.
  controller_.submit(make_request(1, 160, sim::seconds(1000), sim::seconds(2000)));
  sim_.run_until(sim::seconds(400));
  controller_.rescale_running_job(1, 0, 2.0);
  const rjms::Job& job = controller_.job(1);
  EXPECT_EQ(job.freq, 0u);
  EXPECT_EQ(job.scaled_runtime, sim::seconds(1600));
  EXPECT_EQ(job.scaled_walltime, sim::seconds(400 + 1600 * 2));
  EXPECT_EQ(cl_.busy_count_by_freq()[0], static_cast<std::int32_t>(job.nodes.size()));
  while (sim_.step()) {}
  EXPECT_EQ(job.state, rjms::JobState::Completed);
  EXPECT_EQ(job.end_time, sim::seconds(1600));
}

// The end event's verdict is recomputed when it fires: killed iff the
// scaled walltime is strictly below the scaled runtime. A rescale scales
// both remainders by one ratio, so the two cases below fence its outcome
// on either side of that comparison.
TEST_F(DynamicDvfsTest, RescaledWalltimeOverrunIsKilledAtTheNewWalltime) {
  // Runtime 1000 s, walltime 600 s; at t=400 both remainders double:
  // walltime 400 + 200*2 = 800 s, runtime 400 + 600*2 = 1600 s.
  controller_.submit(make_request(1, 160, sim::seconds(1000), sim::seconds(600)));
  sim_.run_until(sim::seconds(400));
  controller_.rescale_running_job(1, 0, 2.0);
  const rjms::Job& job = controller_.job(1);
  ASSERT_EQ(job.scaled_walltime, sim::seconds(800));
  ASSERT_EQ(job.scaled_runtime, sim::seconds(1600));
  while (sim_.step()) {}
  EXPECT_EQ(job.state, rjms::JobState::Killed);
  EXPECT_EQ(job.end_time, sim::seconds(800));
  EXPECT_EQ(controller_.stats().killed, 1u);
}

TEST_F(DynamicDvfsTest, RescaleRoundingWalltimeOntoRuntimeCompletes) {
  // Walltime one millisecond over the runtime; halving both remainders
  // rounds them to the same 502 ms. A tie is no overrun: the job completes.
  controller_.submit(make_request(1, 160, 1003, 1004));
  sim_.run_until(0);
  controller_.rescale_running_job(1, 0, 0.5);
  const rjms::Job& job = controller_.job(1);
  ASSERT_EQ(job.scaled_walltime, 502);
  ASSERT_EQ(job.scaled_runtime, 502);
  while (sim_.step()) {}
  EXPECT_EQ(job.state, rjms::JobState::Completed);
  EXPECT_EQ(job.end_time, 502);
  EXPECT_EQ(controller_.stats().completed, 1u);
}

TEST_F(DynamicDvfsTest, RescaleAdjustsClusterPowerImmediately) {
  controller_.submit(make_request(1, 160, sim::seconds(1000), sim::seconds(2000)));
  sim_.run_until(sim::seconds(10));
  double before = cl_.watts();
  controller_.rescale_running_job(1, 0, 1.63);  // 2.7 -> 1.2 GHz
  EXPECT_DOUBLE_EQ(cl_.watts(), before - 10 * (358.0 - 193.0));
  EXPECT_DOUBLE_EQ(cl_.watts(), cl_.audit_watts());
}

TEST_F(DynamicDvfsTest, RescaleRejectsBadArguments) {
  controller_.submit(make_request(1, 160, sim::seconds(100), sim::seconds(200)));
  EXPECT_THROW(controller_.rescale_running_job(1, 0, 1.0), ps::CheckError);  // pending
  sim_.run_until(sim::seconds(10));
  EXPECT_THROW(controller_.rescale_running_job(1, 0, 0.0), ps::CheckError);
  EXPECT_THROW(controller_.rescale_running_job(1, 0, -1.0), ps::CheckError);
}

TEST_F(DynamicDvfsTest, WindowStartSlowsRunningJobsAndDropsPower) {
  PowercapManager manager(controller_, dynamic_config());
  // A full-width job starts at fmax while no cap exists: 34 360 W.
  controller_.submit(make_request(1, 1440, sim::seconds(2000), sim::seconds(3000)));
  sim_.run_until(sim::seconds(490));
  ASSERT_EQ(controller_.job(1).state, rjms::JobState::Running);
  EXPECT_EQ(controller_.job(1).freq, cl_.frequencies().max_index());

  // The cap arrives afterwards: window at t=500 s, 26 kW. The window's
  // optimal frequency is 1.8 GHz (90 * 248 + 2 140 = 24 460 <= 26 000).
  // Without dynamic DVFS the job would carry 34 360 W through the window;
  // with it the boundary rescales the job and power drops instantly.
  manager.add_powercap(sim::seconds(500), sim::seconds(4000), 26000.0);
  sim_.run_until(sim::seconds(501));
  EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(controller_.job(1).freq), 1.8);
  EXPECT_LE(cl_.watts(), 26000.0 + 1e-6);
}

TEST_F(DynamicDvfsTest, WindowEndSpeedsJobsBackUp) {
  PowercapManager manager(controller_, dynamic_config());
  manager.add_powercap(sim::seconds(100), sim::seconds(1000), 26000.0);
  // Admitted inside the window at the clamped frequency.
  controller_.submit(make_request(1, 1440, sim::seconds(5000), sim::seconds(8000)));
  sim_.run_until(sim::seconds(200));
  ASSERT_EQ(controller_.job(1).state, rjms::JobState::Running);
  cluster::FreqIndex inside = controller_.job(1).freq;
  EXPECT_LT(inside, cl_.frequencies().max_index());
  sim_.run_until(sim::seconds(1001));
  EXPECT_EQ(controller_.job(1).freq, cl_.frequencies().max_index());
  // Turnaround improves: the end estimate shrank when speeding up.
  EXPECT_LT(controller_.job(1).scaled_runtime, sim::seconds(5000) * 2);
}

TEST_F(DynamicDvfsTest, EndToEndViolationVanishesWithDynamicDvfs) {
  // Same scenario with and without the extension: dynamic DVFS removes the
  // carried-over violation at window start whenever the window's optimal
  // frequency exists.
  auto run = [](bool dynamic) {
    workload::GeneratorParams params =
        workload::params_for(workload::Profile::MedianJob);
    params.name = "dyn";
    params.span = sim::hours(2);
    params.job_count = 2300;
    params.w_huge = 0.0;
    ScenarioConfig config;
    config.custom_workload = params;
    config.racks = 2;
    config.seed = 77;
    config.powercap.policy = Policy::Dvfs;
    config.powercap.dynamic_dvfs = dynamic;
    config.cap_lambda = 0.6;
    return run_scenario(config);
  };
  ScenarioResult without = run(false);
  ScenarioResult with = run(true);
  EXPECT_LE(with.summary.cap_violation_seconds,
            without.summary.cap_violation_seconds);
  // At 60% the window freq exists (f* defined), so the violation is gone.
  EXPECT_NEAR(with.summary.cap_violation_seconds, 0.0, 1.0);
}

}  // namespace
}  // namespace ps::core
