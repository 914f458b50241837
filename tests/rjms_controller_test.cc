// Controller: job lifecycle, FCFS + EASY backfill, walltime enforcement,
// switch-off reservations and observers. Priority weights are zeroed so
// ordering is pure FCFS (submit time, then id) and scenarios stay exact.
#include "rjms/controller.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "cluster/curie.h"
#include "scheduled_actions.h"
#include "util/check.h"

namespace ps::rjms {
namespace {

ControllerConfig fcfs_config() {
  ControllerConfig config;
  config.priority.age = 0.0;
  config.priority.size = 0.0;
  config.priority.fair_share = 0.0;
  return config;
}

workload::JobRequest make_request(std::int64_t id, std::int64_t cores,
                                  sim::Duration runtime, sim::Duration walltime,
                                  sim::Time submit = 0, std::int32_t user = 0) {
  workload::JobRequest request;
  request.id = id;
  request.submit_time = submit;
  request.user = user;
  request.requested_cores = cores;
  request.base_runtime = runtime;
  request.requested_walltime = walltime;
  return request;
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : cl_(cluster::curie::make_scaled_cluster(1)),  // 90 nodes, 1440 cores
        controller_(sim_, cl_, fcfs_config()) {}

  sim::Simulator sim_;
  cluster::Cluster cl_;
  Controller controller_;
};

TEST_F(ControllerTest, SingleJobLifecycle) {
  controller_.submit(make_request(1, 32, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(sim::seconds(50));
  const Job& job = controller_.job(1);
  // The allocation is defined while the job runs: 32 cores / 16 per node.
  EXPECT_EQ(job.state, JobState::Running);
  EXPECT_EQ(job.nodes.size(), 2u);
  for (cluster::NodeId node : job.nodes) {
    EXPECT_EQ(cl_.state(node), cluster::NodeState::Busy);
  }
  while (sim_.step()) {}
  EXPECT_EQ(job.state, JobState::Completed);
  EXPECT_EQ(job.start_time, 0);
  EXPECT_EQ(job.end_time, sim::seconds(100));
  EXPECT_EQ(job.width, 2);  // the node list went back to the controller
  EXPECT_EQ(job.freq, cl_.frequencies().max_index());
  EXPECT_EQ(controller_.stats().completed, 1u);
  EXPECT_EQ(cl_.count(cluster::NodeState::Busy), 0);
}

TEST_F(ControllerTest, NodesBusyWhileRunning) {
  controller_.submit(make_request(1, 160, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(sim::seconds(50));
  EXPECT_EQ(cl_.count(cluster::NodeState::Busy), 10);
  EXPECT_DOUBLE_EQ(cl_.watts(), cl_.audit_watts());
  while (sim_.step()) {}
  EXPECT_EQ(cl_.count(cluster::NodeState::Busy), 0);
}

TEST_F(ControllerTest, JobWiderThanMachineRejected) {
  controller_.submit(make_request(1, 1441, sim::seconds(10), sim::seconds(10)));
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(1).state, JobState::Killed);
  EXPECT_EQ(controller_.stats().rejected, 1u);
  EXPECT_EQ(controller_.stats().started, 0u);
}

TEST_F(ControllerTest, WalltimeLimitKillsOverrunningJob) {
  controller_.submit(make_request(1, 16, sim::seconds(100), sim::seconds(40)));
  while (sim_.step()) {}
  const Job& job = controller_.job(1);
  EXPECT_EQ(job.state, JobState::Killed);
  EXPECT_EQ(job.end_time, sim::seconds(40));
  EXPECT_EQ(controller_.stats().killed, 1u);
}

TEST_F(ControllerTest, FcfsOrderBySubmitThenId) {
  // Two full-width jobs: must run back to back in id order.
  controller_.submit(make_request(1, 1440, sim::seconds(100), sim::seconds(100)));
  controller_.submit(make_request(2, 1440, sim::seconds(100), sim::seconds(100)));
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(1).start_time, 0);
  EXPECT_EQ(controller_.job(2).start_time, sim::seconds(100));
}

TEST_F(ControllerTest, EasyBackfillFillsWithoutDelayingHead) {
  // J1 takes 89 nodes until t=100 (walltime 200). J2 (head) needs all 90:
  // shadow at t=200. J3 fits the idle node and ends before the shadow ->
  // backfills. J4 would outlive the shadow -> must wait.
  controller_.submit(make_request(1, 89 * 16, sim::seconds(100), sim::seconds(200)));
  controller_.submit(make_request(2, 1440, sim::seconds(100), sim::seconds(200)));
  controller_.submit(make_request(3, 16, sim::seconds(50), sim::seconds(100)));
  controller_.submit(make_request(4, 16, sim::seconds(50), sim::seconds(300)));
  while (sim_.step()) {}

  EXPECT_EQ(controller_.job(1).start_time, 0);
  EXPECT_EQ(controller_.job(3).start_time, 0);            // backfilled
  EXPECT_EQ(controller_.job(2).start_time, sim::seconds(100));  // head at J1 end
  EXPECT_GE(controller_.job(4).start_time, sim::seconds(200));  // never before head
  EXPECT_GE(controller_.stats().backfill_starts, 1u);
}

TEST_F(ControllerTest, QuickAttemptBackfillsNewArrivalsUnderShadow) {
  controller_.submit(make_request(1, 89 * 16, sim::seconds(100), sim::seconds(200)));
  controller_.submit(make_request(2, 1440, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(sim::seconds(10));
  // New tiny job arrives mid-run; shadow is cached (t=200): it fits.
  controller_.submit(make_request(3, 16, sim::seconds(20), sim::seconds(50)));
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(3).start_time, sim::seconds(10));
}

TEST_F(ControllerTest, SwitchOffReservationPowersNodesDownAndUp) {
  auto nodes = cl_.topology().nodes_of_chassis(0);
  controller_.add_switch_off_reservation(sim::seconds(100), sim::seconds(200), nodes,
                                         2354.0);
  sim_.run_until(sim::seconds(150));
  EXPECT_EQ(cl_.count(cluster::NodeState::Off), 18);
  // The whole chassis is off: its infra and BMC draw are gone too.
  EXPECT_DOUBLE_EQ(cl_.watts(), 72 * 117.0 + 4 * 248.0 + 900.0);
  sim_.run_until(sim::seconds(250));
  EXPECT_EQ(cl_.count(cluster::NodeState::Off), 0);
  EXPECT_EQ(cl_.count(cluster::NodeState::Idle), 90);
}

TEST_F(ControllerTest, JobsAvoidReservedNodes) {
  auto nodes = cl_.topology().nodes_of_chassis(0);
  controller_.add_switch_off_reservation(sim::seconds(100), sim::seconds(200), nodes,
                                         2354.0);
  // 80 nodes requested at t=0 with walltime overlapping the window: only 72
  // nodes are unreserved, so the job must wait until the window ends.
  controller_.submit(
      make_request(1, 80 * 16, sim::seconds(50), sim::seconds(150)));
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(1).start_time, sim::seconds(200));
}

TEST_F(ControllerTest, ShortJobRunsBeforeSwitchOffWindow) {
  auto nodes = cl_.topology().nodes_of_chassis(0);
  controller_.add_switch_off_reservation(sim::seconds(100), sim::seconds(200), nodes,
                                         2354.0);
  // Walltime 50s: finishes before the window starts, so all 90 nodes are
  // usable immediately.
  controller_.submit(make_request(1, 80 * 16, sim::seconds(40), sim::seconds(50)));
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(1).start_time, 0);
}

TEST_F(ControllerTest, TransitionDelaysAreModelled) {
  ControllerConfig config = fcfs_config();
  config.shutdown_delay = sim::seconds(30);
  config.boot_delay = sim::seconds(60);
  Controller controller(sim_, cl_, config);
  auto nodes = cl_.topology().nodes_of_chassis(1);
  controller.add_switch_off_reservation(sim::seconds(100), sim::seconds(200), nodes,
                                        2354.0);
  // Shutdown begins at 70 so the window opens with nodes already off.
  sim_.run_until(sim::seconds(80));
  EXPECT_EQ(cl_.count(cluster::NodeState::ShuttingDown), 18);
  sim_.run_until(sim::seconds(150));
  EXPECT_EQ(cl_.count(cluster::NodeState::Off), 18);
  sim_.run_until(sim::seconds(230));
  EXPECT_EQ(cl_.count(cluster::NodeState::Booting), 18);
  sim_.run_until(sim::seconds(300));
  EXPECT_EQ(cl_.count(cluster::NodeState::Idle), 90);
}

TEST_F(ControllerTest, MaintenanceReservationBlocksWithoutPoweringOff) {
  auto nodes = cl_.topology().nodes_of_chassis(0);
  controller_.add_maintenance_reservation(sim::seconds(100), sim::seconds(200), nodes);
  sim_.run_until(sim::seconds(150));
  // Nodes stay powered (idle), unlike a switch-off reservation.
  EXPECT_EQ(cl_.count(cluster::NodeState::Off), 0);
  EXPECT_EQ(cl_.count(cluster::NodeState::Idle), 90);
  // But jobs overlapping the window cannot use them.
  controller_.submit(make_request(1, 80 * 16, sim::seconds(30), sim::seconds(100)));
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(1).start_time, sim::seconds(200));
}

TEST_F(ControllerTest, PermissiveReservationAllowsPreWindowStarts) {
  auto nodes = cl_.topology().nodes_of_chassis(0);
  controller_.add_switch_off_reservation(sim::seconds(100), sim::seconds(200), nodes,
                                         2354.0, /*permissive=*/true);
  // 80 nodes with a walltime overlapping the window: permissive mode still
  // lets it start immediately (strict mode would wait until t=200).
  controller_.submit(make_request(1, 80 * 16, sim::seconds(50), sim::seconds(150)));
  sim_.run_until(sim::seconds(10));
  EXPECT_EQ(controller_.job(1).state, JobState::Running);
  EXPECT_EQ(controller_.job(1).start_time, 0);
}

TEST_F(ControllerTest, PermissiveReservationPowersOffOpportunistically) {
  auto nodes = cl_.topology().nodes_of_chassis(0);
  controller_.add_switch_off_reservation(sim::seconds(100), sim::seconds(200), nodes,
                                         2354.0, /*permissive=*/true);
  // Whole machine busy until t=130 (inside the window): at the window start
  // the busy reserved nodes are skipped; when the job ends its reserved
  // nodes go straight to Off instead of Idle.
  controller_.submit(make_request(1, 1440, sim::seconds(130), sim::seconds(150)));
  sim_.run_until(sim::seconds(120));
  EXPECT_EQ(cl_.count(cluster::NodeState::Off), 0);  // all still busy
  sim_.run_until(sim::seconds(140));
  EXPECT_EQ(cl_.count(cluster::NodeState::Off), 18);  // reserved chassis off
  EXPECT_EQ(cl_.count(cluster::NodeState::Idle), 72);
  sim_.run_until(sim::seconds(250));
  EXPECT_EQ(cl_.count(cluster::NodeState::Off), 0);  // window over: back up
}

TEST_F(ControllerTest, PermissiveReservationBlocksStartsInsideWindow) {
  auto nodes = cl_.topology().nodes_of_chassis(0);
  controller_.add_switch_off_reservation(sim::seconds(100), sim::seconds(200), nodes,
                                         2354.0, /*permissive=*/true);
  sim_.run_until(sim::seconds(150));
  EXPECT_EQ(cl_.count(cluster::NodeState::Off), 18);
  // A full-width job cannot start inside the window (only 72 nodes usable).
  controller_.submit(make_request(1, 1440, sim::seconds(10), sim::seconds(20)));
  sim_.run_until(sim::seconds(160));
  EXPECT_EQ(controller_.job(1).state, JobState::Pending);
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(1).start_time, sim::seconds(200));
}

TEST_F(ControllerTest, KillJobFreesNodesImmediately) {
  controller_.submit(make_request(1, 160, sim::seconds(1000), sim::seconds(2000)));
  sim_.run_until(sim::seconds(10));
  EXPECT_EQ(controller_.running_count(), 1u);
  controller_.kill_job(1);
  EXPECT_EQ(controller_.job(1).state, JobState::Killed);
  EXPECT_EQ(cl_.count(cluster::NodeState::Busy), 0);
  EXPECT_EQ(controller_.running_count(), 0u);
  // The superseded end event still fires at 1000 s, and does nothing.
  const std::uint64_t epoch = controller_.epoch();
  const std::uint64_t fired = sim_.fired_count();
  while (sim_.step()) {}
  EXPECT_EQ(sim_.fired_count(), fired + 1);
  EXPECT_EQ(sim_.now(), sim::seconds(1000));
  EXPECT_EQ(controller_.epoch(), epoch);
  EXPECT_EQ(controller_.job(1).state, JobState::Killed);
  EXPECT_EQ(controller_.job(1).end_time, sim::seconds(10));
  EXPECT_EQ(controller_.stats().killed, 1u);
  EXPECT_EQ(controller_.stats().completed, 0u);
}

// A rescale at the very instant a job's end is due leaves it no remaining
// time: the new end event sits at the same millisecond as the one it
// replaces. The job must finish once, where the new event sits in the
// (time, band, seq) order: after an event scheduled at that instant once
// the old end was already queued. An end judged live by its time alone
// would finish the job at the old event's place, before the marker.
TEST_F(ControllerTest, RescaleAtTheEndInstantFinishesOnceAtTheNewEndsPlace) {
  struct EndLog : ControllerObserver {
    explicit EndLog(std::vector<std::string>& log) : log(log) {}
    void on_job_end(const Job&) override { log.push_back("end"); }
    std::vector<std::string>& log;
  };
  std::vector<std::string> log;
  EndLog observer(log);
  controller_.add_observer(&observer);
  sim::ScheduledActions actions(sim_);
  const cluster::FreqIndex slower = cl_.frequencies().max_index() - 1;
  // Queued before the job's end event, so it fires first at 100 s.
  actions.at(sim::seconds(100), [&] {
    controller_.rescale_running_job(1, slower, 1.5);
    log.push_back("rescaled");
  });
  controller_.submit(make_request(1, 16, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(0);
  ASSERT_EQ(controller_.job(1).state, JobState::Running);
  actions.at(sim::seconds(100), [&] { log.push_back("marker"); });

  while (sim_.step()) {}
  EXPECT_EQ(log, (std::vector<std::string>{"rescaled", "marker", "end"}));
  const Job& job = controller_.job(1);
  EXPECT_EQ(job.state, JobState::Completed);
  EXPECT_EQ(job.end_time, sim::seconds(100));
  EXPECT_EQ(job.freq, slower);
  EXPECT_EQ(job.scaled_runtime, sim::seconds(100));          // nothing left to scale
  EXPECT_EQ(job.scaled_walltime, sim::seconds(100 + 150));  // 100 s left, x1.5
  EXPECT_EQ(controller_.stats().completed, 1u);
  EXPECT_EQ(controller_.stats().killed, 0u);
}

TEST_F(ControllerTest, KillNonRunningJobRejected) {
  controller_.submit(make_request(1, 1440, sim::seconds(10), sim::seconds(10)));
  controller_.submit(make_request(2, 1440, sim::seconds(10), sim::seconds(10)));
  // Job 2 pending behind job 1 at t=0 (passes have not run yet).
  EXPECT_THROW(controller_.kill_job(2), ps::CheckError);
}

class CountingObserver : public ControllerObserver {
 public:
  void on_job_start(const Job&) override { ++starts; }
  void on_job_end(const Job&) override { ++ends; }
  void on_state_change(sim::Time) override { ++changes; }
  int starts = 0;
  int ends = 0;
  int changes = 0;
};

TEST_F(ControllerTest, ObserversSeeStartsAndEnds) {
  CountingObserver observer;
  controller_.add_observer(&observer);
  controller_.submit(make_request(1, 16, sim::seconds(10), sim::seconds(20)));
  controller_.submit(make_request(2, 16, sim::seconds(10), sim::seconds(20)));
  while (sim_.step()) {}
  EXPECT_EQ(observer.starts, 2);
  EXPECT_EQ(observer.ends, 2);
  EXPECT_GE(observer.changes, 4);
}

TEST_F(ControllerTest, FairShareChargedOnCompletion) {
  controller_.submit(make_request(1, 160, sim::seconds(100), sim::seconds(200), 0, 7));
  controller_.submit(make_request(2, 20, sim::seconds(300), sim::seconds(400), 0, 8));
  while (sim_.step()) {}
  ASSERT_EQ(controller_.job(1).end_time, sim::seconds(100));
  ASSERT_EQ(controller_.job(2).end_time, sim::seconds(300));
  // Allocated cores times runtime, charged at each job's end:
  // 10 nodes * 16 cores * 100 s and 2 nodes * 16 cores * 300 s.
  FairShare expected;
  expected.charge(7, 16000.0, sim::seconds(100));
  expected.charge(8, 9600.0, sim::seconds(300));
  for (std::int32_t user : {7, 8}) {
    EXPECT_DOUBLE_EQ(controller_.fairshare().factor(user), expected.factor(user));
  }
  EXPECT_LT(controller_.fairshare().factor(7), controller_.fairshare().factor(8));
}

TEST_F(ControllerTest, DuplicateJobIdRejected) {
  controller_.submit(make_request(1, 16, sim::seconds(1), sim::seconds(1)));
  EXPECT_THROW(controller_.submit(make_request(1, 16, sim::seconds(1), sim::seconds(1))),
               ps::CheckError);
}

TEST_F(ControllerTest, ObserverAttachingAfterAStartRejected) {
  CountingObserver early;
  controller_.add_observer(&early);
  controller_.submit(make_request(1, 16, sim::seconds(10), sim::seconds(20)));
  sim_.run_until(0);
  ASSERT_EQ(controller_.job(1).state, JobState::Running);
  // A late observer would see ends of jobs whose starts it missed.
  CountingObserver late;
  EXPECT_THROW(controller_.add_observer(&late), ps::CheckError);
}

TEST_F(ControllerTest, JobTableFindsSparseNegativeAndExtremeIds) {
  // Descending ids from three families whose low bits coincide, enough of
  // them that the id index doubles several times (16 -> 1024 slots).
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<JobId> ids;
  for (std::int64_t i = 0; i < 150; ++i) {
    ids.push_back(kMax - i);
    ids.push_back(-1 - i * (std::int64_t{1} << 32));
    ids.push_back((150 - i) << 40);
  }
  ids.push_back(std::numeric_limits<std::int64_t>::min());
  for (JobId id : ids) controller_.submit(make_request(id, 16, sim::seconds(1), sim::seconds(2)));

  for (JobId id : ids) EXPECT_EQ(controller_.job(id).id(), id);
  std::vector<JobId> order;
  controller_.for_each_job([&order](const Job& job) { order.push_back(job.id()); });
  EXPECT_EQ(order, ids);

  EXPECT_THROW(controller_.job(0), ps::CheckError);
  EXPECT_THROW(controller_.job(kMax - 150), ps::CheckError);
  EXPECT_THROW(controller_.kill_job(12345), ps::CheckError);
  EXPECT_THROW(controller_.submit(make_request(kMax, 16, sim::seconds(1), sim::seconds(1))),
               ps::CheckError);
  EXPECT_THROW(controller_.submit(make_request(-1, 16, sim::seconds(1), sim::seconds(1))),
               ps::CheckError);
  EXPECT_EQ(controller_.stats().submitted, ids.size());
}

TEST_F(ControllerTest, PendingJobKeepsItsAddressAcrossChunkGrowth) {
  // The pending queue and the end events hold Job*: later submissions must
  // never move a job, whichever chunk it landed in.
  controller_.submit(make_request(1, 1440, sim::seconds(100), sim::seconds(100)));
  controller_.submit(make_request(2, 1440, sim::seconds(100), sim::seconds(100)));
  sim_.run_until(0);  // job 1 holds the machine, job 2 waits
  const Job* pending = &controller_.job(2);
  ASSERT_EQ(pending->state, JobState::Pending);
  for (std::int64_t id = 3; id < 10'003; ++id) {
    controller_.submit(make_request(id, 16, sim::seconds(1), sim::seconds(2)));
  }
  EXPECT_EQ(&controller_.job(2), pending);
  EXPECT_EQ(pending->state, JobState::Pending);
  while (sim_.step()) {}
  EXPECT_EQ(&controller_.job(2), pending);
  EXPECT_EQ(pending->state, JobState::Completed);
  EXPECT_EQ(controller_.stats().completed, 10'002u);
}

TEST_F(ControllerTest, StatsCountSubmissions) {
  controller_.submit(make_request(1, 16, sim::seconds(1), sim::seconds(2)));
  controller_.submit(make_request(2, 16, sim::seconds(1), sim::seconds(2)));
  while (sim_.step()) {}
  EXPECT_EQ(controller_.stats().submitted, 2u);
  EXPECT_EQ(controller_.stats().started, 2u);
  std::vector<JobId> ids;
  controller_.for_each_job([&ids](const Job& job) { ids.push_back(job.id()); });
  EXPECT_EQ(ids, (std::vector<JobId>{1, 2}));
}

}  // namespace
}  // namespace ps::rjms
