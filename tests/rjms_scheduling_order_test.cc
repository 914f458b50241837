// End-to-end prioritization: the multifactor weights must actually reorder
// the queue the controller drains (age, size, fairshare), not just score
// jobs in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "cluster/curie.h"
#include "rjms/controller.h"

namespace ps::rjms {
namespace {

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

ControllerConfig weights(double age, double size, double fair_share) {
  ControllerConfig config;
  config.priority.age = age;
  config.priority.size = size;
  config.priority.fair_share = fair_share;
  config.priority.age_saturation = sim::hours(1);
  return config;
}

class OrderTest : public ::testing::Test {
 protected:
  OrderTest() : cl_(cluster::curie::make_scaled_cluster(1)) {}

  /// Fills the machine with a blocker job, submits the competing jobs
  /// while it runs, and returns the order in which they start.
  std::vector<JobId> drain_order(Controller& controller,
                                 std::vector<workload::JobRequest> jobs) {
    controller.submit(
        make_request(1000, 1440, sim::seconds(100), sim::seconds(100)));
    for (auto& job : jobs) {
      sim_.schedule_at(job.submit_time,
                       [&controller, job] { controller.submit(job); });
    }
    sim_.run();
    std::vector<std::pair<sim::Time, JobId>> starts;
    for (JobId id : controller.all_jobs()) {
      if (id == 1000) continue;
      starts.emplace_back(controller.job(id).start_time, id);
    }
    std::sort(starts.begin(), starts.end());
    std::vector<JobId> order;
    order.reserve(starts.size());
    for (auto& [t, id] : starts) order.push_back(id);
    return order;
  }

  sim::Simulator sim_;
  cluster::Cluster cl_;
};

TEST_F(OrderTest, SizeWeightPrefersWideJobs) {
  Controller controller(sim_, cl_, weights(0.0, 1000.0, 0.0));
  // Both need the whole machine, so they run sequentially; the wider one
  // must go first despite the same submit time and a higher id.
  auto order = drain_order(
      controller, {make_request(1, 720, sim::seconds(10), sim::seconds(20), 0),
                   make_request(2, 1440, sim::seconds(10), sim::seconds(20), 0)});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order.front(), 2);
}

TEST_F(OrderTest, AgeWeightPrefersOlderJobs) {
  Controller controller(sim_, cl_, weights(1000.0, 0.0, 0.0));
  // Job 2 arrives earlier (submits at t=0, the other at t=50): by the time
  // the blocker ends (t=100) it has waited longer and must start first.
  auto order = drain_order(
      controller,
      {make_request(1, 1440, sim::seconds(10), sim::seconds(20), sim::seconds(50)),
       make_request(2, 1440, sim::seconds(10), sim::seconds(20), 0)});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order.front(), 2);
}

TEST_F(OrderTest, FairShareWeightPrefersLightUsers) {
  ControllerConfig config = weights(0.0, 0.0, 1000.0);
  Controller controller(sim_, cl_, config);
  // User 7 burns the whole machine first; then one job per user competes.
  controller.submit(make_request(1000, 1440, sim::seconds(100), sim::seconds(100),
                                 0, /*user=*/7));
  workload::JobRequest heavy =
      make_request(1, 1440, sim::seconds(10), sim::seconds(20), sim::seconds(10), 7);
  workload::JobRequest light =
      make_request(2, 1440, sim::seconds(10), sim::seconds(20), sim::seconds(10), 8);
  sim_.schedule_at(heavy.submit_time, [&controller, heavy] { controller.submit(heavy); });
  sim_.schedule_at(light.submit_time, [&controller, light] { controller.submit(light); });
  sim_.run();
  // The light user's job starts first despite the lower id of the other.
  EXPECT_LT(controller.job(2).start_time, controller.job(1).start_time);
}

TEST_F(OrderTest, FairShareDisabledFallsBackToFcfs) {
  ControllerConfig config = weights(0.0, 0.0, 1000.0);
  config.fairshare_enabled = false;
  Controller controller(sim_, cl_, config);
  controller.submit(make_request(1000, 1440, sim::seconds(100), sim::seconds(100),
                                 0, /*user=*/7));
  workload::JobRequest heavy =
      make_request(1, 1440, sim::seconds(10), sim::seconds(20), sim::seconds(10), 7);
  workload::JobRequest light =
      make_request(2, 1440, sim::seconds(10), sim::seconds(20), sim::seconds(10), 8);
  sim_.schedule_at(heavy.submit_time, [&controller, heavy] { controller.submit(heavy); });
  sim_.schedule_at(light.submit_time, [&controller, light] { controller.submit(light); });
  sim_.run();
  // Equal priorities: id tie-break makes job 1 start first.
  EXPECT_LT(controller.job(1).start_time, controller.job(2).start_time);
}

// Deep-queue ordering. A pass sorts only the prefix of the queue it
// visits and grows that prefix while jobs keep starting, so the start
// order must equal a full sort of the queue by PriorityCalculator::compute
// at every pass, whatever the backfill depth. Every job fits one node of a
// wide-node machine, so with no node free nothing can backfill past the
// head and the starts of a pass are exactly the queue's top entries.
class DeepQueueOrderTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  static constexpr std::int32_t kNodes = 320;
  static constexpr std::int32_t kCoresPerNode = 1024;

  static cluster::Cluster wide_node_cluster() {
    cluster::PowerModelSpec spec{
        .node_down_watts = cluster::curie::kDownWatts,
        .node_idle_watts = cluster::curie::kIdleWatts,
        .frequencies = cluster::curie::frequency_table(),
    };
    return cluster::Cluster(
        cluster::PowerModel(cluster::Topology(1, 1, kNodes, kCoresPerNode), spec));
  }

  struct StartLog : ControllerObserver {
    std::vector<JobId> order;
    void on_job_start(const Job& job) override { order.push_back(job.id()); }
  };
};

TEST_P(DeepQueueOrderTest, StartsFollowFullPriorityOrder) {
  sim::Simulator sim;
  cluster::Cluster cl = wide_node_cluster();
  ControllerConfig config = weights(1000.0, 500.0, 2000.0);
  config.priority.age_saturation = sim::hours(3);  // later steps saturate age
  config.backfill_depth = GetParam();
  Controller controller(sim, cl, config);
  StartLog log;
  controller.add_observer(&log);

  // Blockers fill the machine at t=0, one per release step; step k frees
  // its nodes at k hours and charges its user's fair share.
  const std::vector<std::int32_t> freed = {3, 40, 17, 90, 60, 110};
  ASSERT_EQ(std::accumulate(freed.begin(), freed.end(), 0), kNodes);
  for (std::size_t k = 0; k < freed.size(); ++k) {
    sim::Duration runtime = sim::hours(static_cast<std::int64_t>(k) + 1);
    controller.submit(make_request(static_cast<std::int64_t>(k) + 1,
                                   std::int64_t{freed[k]} * kCoresPerNode, runtime,
                                   runtime, 0, static_cast<std::int32_t>(k % 4)));
  }
  sim.run_until(0);
  ASSERT_EQ(controller.running_count(), freed.size());

  // 320 one-node jobs with distinct ages (one second apart) and distinct
  // sizes (a permutation of 1..331 cores), spread over five users.
  std::vector<workload::JobRequest> queue;
  for (std::int64_t i = 0; i < kNodes; ++i) {
    workload::JobRequest request =
        make_request(1000 + i, 1 + (i * 37) % 331, sim::hours(1000), sim::hours(1000),
                     sim::seconds(1 + i), static_cast<std::int32_t>(i % 5));
    queue.push_back(request);
    sim.schedule_at(request.submit_time,
                    [&controller, request] { controller.submit(request); });
  }
  sim.run_until(sim::hours(1) - 1);
  ASSERT_EQ(controller.pending_count(), queue.size());
  ASSERT_EQ(log.order.size(), freed.size());

  PriorityCalculator calc(config.priority, cl.topology().total_cores());
  std::vector<JobId> expected;
  for (std::size_t k = 0; k < freed.size(); ++k) {
    sim::Time step = sim::hours(static_cast<std::int64_t>(k) + 1);
    sim.run_until(step);
    // The blocker's charge is in; the pass at `step` priced with this
    // fair-share state. Order the still-queued requests the same way.
    std::vector<std::tuple<double, sim::Time, JobId>> ranked;
    for (const auto& request : queue) {
      if (std::find(expected.begin(), expected.end(), request.id) != expected.end()) continue;
      Job job;
      job.request = request;
      ranked.emplace_back(-calc.compute(job, step, &controller.fairshare()),
                          request.submit_time, request.id);
    }
    std::sort(ranked.begin(), ranked.end());
    for (std::int32_t n = 0; n < freed[k]; ++n) expected.push_back(std::get<2>(ranked[n]));
  }

  std::vector<JobId> started(log.order.begin() + static_cast<std::ptrdiff_t>(freed.size()),
                             log.order.end());
  EXPECT_EQ(controller.pending_count(), 0u);
  EXPECT_EQ(started, expected);
}

// Depths below, at and above the default; the largest covers the whole
// queue, the smallest makes a 110-job step regrow the prefix four times.
INSTANTIATE_TEST_SUITE_P(BackfillDepths, DeepQueueOrderTest,
                         ::testing::Values(std::size_t{8}, std::size_t{50},
                                           std::size_t{400}));

}  // namespace
}  // namespace ps::rjms
