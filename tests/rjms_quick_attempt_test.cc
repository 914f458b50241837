// Submit-time quick attempts: when the last full pass cached an EASY
// shadow, submit() tries the new job at once and starts it before
// returning if it fits the shadow and the idle nodes. Also covers the
// selection-failure fast path that makes a burst cost one selector walk
// per failing width class.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/curie.h"
#include "rjms/controller.h"
#include "scheduled_actions.h"
#include "util/check.h"

namespace ps::rjms {
namespace {

ControllerConfig fcfs_config(std::size_t backfill_depth = 50) {
  ControllerConfig config;
  config.priority.age = 0.0;
  config.priority.size = 0.0;
  config.priority.fair_share = 0.0;
  config.backfill_depth = backfill_depth;
  return config;
}

workload::JobRequest make_request(std::int64_t id, std::int64_t cores,
                                  sim::Duration runtime, sim::Duration walltime,
                                  sim::Time submit = 0) {
  workload::JobRequest request;
  request.id = id;
  request.submit_time = submit;
  request.requested_cores = cores;
  request.base_runtime = runtime;
  request.requested_walltime = walltime;
  return request;
}

class QuickAttemptTest : public ::testing::Test {
 protected:
  QuickAttemptTest()
      : cl_(cluster::curie::make_scaled_cluster(1)),  // 90 nodes, 1440 cores
        controller_(sim_, cl_, fcfs_config()) {}

  /// Runs until a full pass has cached an EASY shadow: a long 89-node job
  /// plus a full-width head leave one idle node and shadow at t=200 s.
  void establish_shadow() {
    controller_.submit(make_request(1, 89 * 16, sim::seconds(150), sim::seconds(200)));
    controller_.submit(make_request(2, 1440, sim::seconds(100), sim::seconds(200)));
    sim_.run_until(sim::seconds(10));
  }

  sim::Simulator sim_;
  cluster::Cluster cl_;
  Controller controller_;
};

TEST_F(QuickAttemptTest, SubmitStartsFittingJobBeforeReturning) {
  establish_shadow();
  ASSERT_EQ(cl_.count(cluster::NodeState::Idle), 1);
  std::uint64_t attempts_before = controller_.stats().quick_attempts;
  // Ends at 70 s, inside the 200 s shadow: it cannot delay the head job.
  JobId id = controller_.submit(make_request(3, 16, sim::seconds(30), sim::seconds(60),
                                             sim::seconds(10)));
  const Job& job = controller_.job(id);
  EXPECT_EQ(job.state, JobState::Running);
  EXPECT_EQ(job.start_time, sim::seconds(10));
  EXPECT_EQ(job.nodes.size(), 1u);
  EXPECT_EQ(cl_.count(cluster::NodeState::Idle), 0);
  EXPECT_EQ(controller_.stats().quick_attempts, attempts_before + 1);
  EXPECT_EQ(controller_.pending_count(), 1u);  // only the blocked head
}

TEST_F(QuickAttemptTest, SameMillisecondBurstTakesIdleNodeInFifoOrder) {
  establish_shadow();
  std::uint64_t attempts_before = controller_.stats().quick_attempts;
  // Three same-millisecond arrivals; only one node is idle, so FIFO order
  // decides who gets it: job 10 starts, 11 and 12 stay pending.
  sim::ScheduledActions actions(sim_);
  for (std::int64_t id : {10, 11, 12}) {
    actions.at(sim::seconds(20), [this, id] {
      controller_.submit(make_request(id, 16, sim::seconds(30), sim::seconds(60),
                                      sim::seconds(20)));
    });
  }
  sim_.run_until(sim::seconds(21));
  EXPECT_EQ(controller_.job(10).state, JobState::Running);
  EXPECT_EQ(controller_.job(10).start_time, sim::seconds(20));
  EXPECT_EQ(controller_.job(11).state, JobState::Pending);
  EXPECT_EQ(controller_.job(12).state, JobState::Pending);
  EXPECT_EQ(controller_.stats().quick_attempts, attempts_before + 3);
}

TEST_F(QuickAttemptTest, KillAfterInlineStartLeavesStartedJobInPlace) {
  establish_shadow();
  controller_.submit(make_request(3, 16, sim::seconds(30), sim::seconds(60),
                                  sim::seconds(10)));
  ASSERT_EQ(controller_.job(3).state, JobState::Running);
  std::vector<cluster::NodeId> taken = controller_.job(3).nodes;
  // The kill frees the other 89 nodes; job 3 keeps the one it took.
  controller_.kill_job(1);
  EXPECT_EQ(controller_.job(1).state, JobState::Killed);
  EXPECT_EQ(controller_.job(3).state, JobState::Running);
  EXPECT_EQ(controller_.job(3).nodes, taken);
  EXPECT_EQ(cl_.state(taken.front()), cluster::NodeState::Busy);
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(3).state, JobState::Completed);
  EXPECT_EQ(controller_.job(3).start_time, sim::seconds(10));
  EXPECT_EQ(controller_.job(3).end_time, sim::seconds(40));
}

TEST_F(QuickAttemptTest, SelectionFailureFastPathSkipsRepeatWalks) {
  // Chassis 0 under maintenance for any span reaching into the window:
  // 72 of 90 nodes are usable, so 80-node jobs pass the idle-count check
  // but fail selection. The first failure prices the width class; the rest
  // of the pass fast-fails without walking the idle index.
  Controller controller(sim_, cl_, fcfs_config(500));
  controller.add_maintenance_reservation(sim::seconds(10), sim::hours(2),
                                         cl_.topology().nodes_of_chassis(0));
  for (std::int64_t id = 1; id <= 20; ++id) {
    controller.submit(make_request(id, 80 * 16, sim::seconds(100), sim::hours(1)));
  }
  sim_.run_until(sim::seconds(1));
  EXPECT_EQ(controller.pending_count(), 20u);
  EXPECT_GE(controller.stats().selector_fast_fails, 19u);
  // The window ends eventually; jobs drain in order afterwards.
  sim_.run_until(sim::hours(2) + sim::seconds(1));
  EXPECT_EQ(controller.job(1).state, JobState::Running);
}

}  // namespace
}  // namespace ps::rjms
