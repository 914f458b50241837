// PowercapManager: lambda conversion, over-cap handling (wait vs the
// paper's "extreme actions" kill mode, and kill mode after the dynamic-DVFS
// slow-down), None-policy passthrough.
#include "core/powercap_manager.h"

#include <gtest/gtest.h>

#include "cluster/curie.h"
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

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest()
      : cl_(cluster::curie::make_scaled_cluster(1)),
        controller_(sim_, cl_, fcfs_config()) {}

  sim::Simulator sim_;
  cluster::Cluster cl_;
  rjms::Controller controller_;
};

TEST_F(ManagerTest, LambdaToWatts) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  PowercapManager manager(controller_, config);
  EXPECT_DOUBLE_EQ(manager.lambda_to_watts(1.0), cl_.power_model().max_cluster_watts());
  EXPECT_DOUBLE_EQ(manager.lambda_to_watts(0.5),
                   0.5 * cl_.power_model().max_cluster_watts());
  EXPECT_THROW((void)manager.lambda_to_watts(0.0), CheckError);
}

TEST_F(ManagerTest, KillModeTerminatesNewestJobsUntilUnderCap) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  config.kill_on_overcap = true;
  PowercapManager manager(controller_, config);

  // Three 30-node jobs at fmax: 12 670 + 3*7 230 = 34 360 W.
  for (std::int64_t id = 1; id <= 3; ++id) {
    controller_.submit(make_request(id, 480, sim::seconds(5000), sim::seconds(9000)));
  }
  sim_.run_until(sim::seconds(10));
  ASSERT_EQ(controller_.running_count(), 3u);

  // Cap 20 kW "for now": kill newest (highest id on same start) until
  // 12 670 + k*7 230 <= 20 000 -> one job may survive.
  manager.add_powercap(sim_.now(), sim::kTimeMax, 20000.0);
  sim_.run_until(sim::seconds(20));
  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Running);
  EXPECT_EQ(controller_.job(2).state, rjms::JobState::Killed);
  EXPECT_EQ(controller_.job(3).state, rjms::JobState::Killed);
  EXPECT_LE(cl_.watts(), 20000.0 + 1e-6);
}

TEST_F(ManagerTest, KillModeSparesJobsThatDynamicDvfsSlowsUnderTheCap) {
  PowercapConfig config;
  config.policy = Policy::Dvfs;
  config.kill_on_overcap = true;
  config.dynamic_dvfs = true;
  PowercapManager manager(controller_, config);
  for (std::int64_t id = 1; id <= 3; ++id) {
    controller_.submit(make_request(id, 480, sim::seconds(5000), sim::seconds(9000)));
  }
  sim_.run_until(sim::seconds(10));
  ASSERT_EQ(controller_.running_count(), 3u);

  // Cap 25 kW: f* = 1.8 GHz (90 * 248 + 2 140 = 24 460 W). The window
  // start slows all three jobs under the cap before the kill pass looks;
  // killing first, at fmax, would take two of them.
  manager.add_powercap(sim_.now(), sim::kTimeMax, 25000.0);
  sim_.run_until(sim::seconds(20));
  for (std::int64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(controller_.job(id).state, rjms::JobState::Running) << "job " << id;
    EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(controller_.job(id).freq), 1.8) << "job " << id;
  }
  EXPECT_LE(cl_.watts(), 25000.0 + 1e-6);
}

TEST_F(ManagerTest, DefaultWaitModeKillsNothing) {
  PowercapConfig config;
  config.policy = Policy::Shut;  // kill_on_overcap defaults to false
  PowercapManager manager(controller_, config);
  for (std::int64_t id = 1; id <= 3; ++id) {
    controller_.submit(make_request(id, 480, sim::seconds(5000), sim::seconds(9000)));
  }
  sim_.run_until(sim::seconds(10));
  manager.add_powercap(sim_.now(), sim::kTimeMax, 20000.0);
  sim_.run_until(sim::seconds(100));
  // Paper default: no extreme actions; the cluster stays above the cap
  // until jobs finish, but no new jobs may start.
  EXPECT_EQ(controller_.running_count(), 3u);
  EXPECT_GT(cl_.watts(), 20000.0);
  controller_.submit(make_request(4, 480, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(sim::seconds(200));
  EXPECT_EQ(controller_.job(4).state, rjms::JobState::Pending);
}

TEST_F(ManagerTest, NonePolicyIgnoresCapEntirely) {
  PowercapConfig config;
  config.policy = Policy::None;
  PowercapManager manager(controller_, config);
  metrics::Recorder recorder(controller_);
  manager.add_powercap(sim_.now(), sim::kTimeMax, 15000.0);
  controller_.submit(make_request(1, 1440, sim::seconds(100), sim::seconds(200)));
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Completed);
  EXPECT_EQ(controller_.job(1).freq, cl_.frequencies().max_index());
  // The cap was violated (recorded but unenforced).
  EXPECT_GT(recorder.cap_violation_seconds(0, sim::seconds(100)), 90.0);
  EXPECT_TRUE(manager.plans().empty());
}

TEST_F(ManagerTest, ShutPolicyPlansOnCapCreation) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  PowercapManager manager(controller_, config);
  manager.add_powercap(sim::seconds(100), sim::seconds(200),
                       manager.lambda_to_watts(0.6));
  ASSERT_EQ(manager.plans().size(), 1u);
  EXPECT_EQ(manager.plans().front().split.mechanism, model::Mechanism::SwitchOffOnly);
  EXPECT_NE(manager.plans().front().reservation_id, 0);
}

TEST_F(ManagerTest, InvalidCapRejected) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  PowercapManager manager(controller_, config);
  EXPECT_THROW((void)manager.add_powercap(0, sim::seconds(10), 0.0), CheckError);
  EXPECT_THROW((void)manager.add_powercap(sim::seconds(10), sim::seconds(5), 100.0),
               CheckError);
}

}  // namespace
}  // namespace ps::core
