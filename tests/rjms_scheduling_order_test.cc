// End-to-end prioritization: the multifactor weights must actually reorder
// the queue the controller drains (age, size, fairshare), not just score
// jobs in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>

#include "cluster/curie.h"
#include "rjms/controller.h"
#include "scheduled_actions.h"

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
      actions_.at(job.submit_time, [&controller, job] { controller.submit(job); });
    }
    while (sim_.step()) {}
    std::vector<std::pair<sim::Time, JobId>> starts;
    controller.for_each_job([&starts](const Job& job) {
      if (job.id() != 1000) starts.emplace_back(job.start_time, job.id());
    });
    std::sort(starts.begin(), starts.end());
    std::vector<JobId> order;
    order.reserve(starts.size());
    for (auto& [t, id] : starts) order.push_back(id);
    return order;
  }

  sim::Simulator sim_;
  sim::ScheduledActions actions_{sim_};
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
  actions_.at(heavy.submit_time, [&controller, heavy] { controller.submit(heavy); });
  actions_.at(light.submit_time, [&controller, light] { controller.submit(light); });
  while (sim_.step()) {}
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
  actions_.at(heavy.submit_time, [&controller, heavy] { controller.submit(heavy); });
  actions_.at(light.submit_time, [&controller, light] { controller.submit(light); });
  while (sim_.step()) {}
  // Equal priorities: id tie-break makes job 1 start first.
  EXPECT_LT(controller.job(1).start_time, controller.job(2).start_time);
}

// Deep-queue ordering. A pass merges per-user priority bands and prices
// only the band heads and the jobs it visits, so the start order must
// equal a full sort of the queue by PriorityCalculator::compute at every
// pass, whatever the backfill depth. Each case fills a wide-node machine
// with blockers, one per release step; step k frees its nodes at (k+1)
// steps and charges its user's fair share. Every queued job fits one node,
// so with no node free nothing can backfill past the head and the starts
// of a pass are exactly the queue's top entries. An observer also audits
// the whole merge against a full sort after every pass and at every start.
struct QueuedJob {
  workload::JobRequest request;
  sim::Time submit_at;  ///< when the controller sees it (may precede submit_time)
};

struct QueueCase {
  std::int32_t nodes;
  std::int32_t cores_per_node;
  ControllerConfig config;
  std::vector<std::int32_t> freed;  ///< nodes each blocker frees, in step order
  sim::Duration step;
  std::vector<QueuedJob> queue;
};

struct OrderRun {
  std::vector<JobId> started;
  std::vector<JobId> expected;
  std::size_t passes_audited = 0;
  std::size_t jobs_audited = 0;
  std::size_t pending_after = 0;
};

cluster::Cluster wide_node_cluster(std::int32_t nodes, std::int32_t cores_per_node) {
  cluster::PowerModelSpec spec{
      .node_down_watts = cluster::curie::kDownWatts,
      .node_idle_watts = cluster::curie::kIdleWatts,
      .frequencies = cluster::curie::frequency_table(),
  };
  return cluster::Cluster(
      cluster::PowerModel(cluster::Topology(1, 1, nodes, cores_per_node), spec));
}

struct AuditLog : ControllerObserver {
  explicit AuditLog(const Controller& controller) : controller(controller) {}
  void on_job_start(const Job& job) override {
    order.push_back(job.id());
    jobs_audited += controller.audit_pass_order();
  }
  void on_pass(sim::Time) override {
    ++passes;
    jobs_audited += controller.audit_pass_order();
  }
  const Controller& controller;
  std::vector<JobId> order;
  std::size_t passes = 0;
  std::size_t jobs_audited = 0;
};

OrderRun run_case(const QueueCase& c, std::size_t backfill_depth) {
  sim::Simulator sim;
  cluster::Cluster cl = wide_node_cluster(c.nodes, c.cores_per_node);
  ControllerConfig config = c.config;
  config.backfill_depth = backfill_depth;
  Controller controller(sim, cl, config);
  sim::ScheduledActions actions(sim);
  AuditLog log(controller);
  controller.add_observer(&log);

  EXPECT_EQ(std::accumulate(c.freed.begin(), c.freed.end(), 0), c.nodes);
  for (std::size_t k = 0; k < c.freed.size(); ++k) {
    sim::Duration runtime = c.step * static_cast<std::int64_t>(k + 1);
    controller.submit(make_request(static_cast<std::int64_t>(k) + 1,
                                   std::int64_t{c.freed[k]} * c.cores_per_node, runtime,
                                   runtime, 0, static_cast<std::int32_t>(k % 4)));
  }
  sim.run_until(0);
  EXPECT_EQ(controller.running_count(), c.freed.size());
  for (const QueuedJob& job : c.queue) {
    EXPECT_LT(job.submit_at, c.step) << "queue jobs arrive before the first release";
    workload::JobRequest request = job.request;
    actions.at(job.submit_at, [&controller, request] { controller.submit(request); });
  }

  OrderRun run;
  const FairShare* fairshare = config.fairshare_enabled ? &controller.fairshare() : nullptr;
  PriorityCalculator calc(config.priority, cl.topology().total_cores());
  for (std::size_t k = 0; k < c.freed.size(); ++k) {
    sim::Time release = c.step * static_cast<std::int64_t>(k + 1);
    sim.run_until(release);
    // The blocker's charge is in; the pass at `release` priced with this
    // fair-share state. Order the still-queued requests the same way.
    std::vector<std::tuple<double, sim::Time, JobId>> ranked;
    for (const QueuedJob& job : c.queue) {
      const workload::JobRequest& request = job.request;
      if (std::find(run.expected.begin(), run.expected.end(), request.id) !=
          run.expected.end()) {
        continue;
      }
      Job priced;
      priced.request = request;
      double fs_factor = fairshare != nullptr ? fairshare->factor(request.user) : 1.0;
      ranked.emplace_back(-calc.compute(priced, release, fs_factor), request.submit_time,
                          request.id);
    }
    std::sort(ranked.begin(), ranked.end());
    std::size_t starts = std::min<std::size_t>(static_cast<std::size_t>(c.freed[k]),
                                               ranked.size());
    for (std::size_t n = 0; n < starts; ++n) run.expected.push_back(std::get<2>(ranked[n]));
  }

  run.started.assign(log.order.begin() + static_cast<std::ptrdiff_t>(c.freed.size()),
                     log.order.end());
  run.passes_audited = log.passes;
  run.jobs_audited = log.jobs_audited;
  run.pending_after = controller.pending_count();
  return run;
}

workload::JobRequest queued(std::int64_t id, std::int64_t cores, sim::Time submit,
                            std::int32_t user) {
  return make_request(id, cores, sim::hours(1000), sim::hours(1000), submit, user);
}

// The original deep queue: 320 one-node jobs with distinct ages (one second
// apart) and distinct sizes (a permutation of 1..331 cores) over five
// users; a 3 h saturation makes the later steps saturate.
QueueCase deep_queue() {
  QueueCase c{320, 1024, weights(1000.0, 500.0, 2000.0), {3, 40, 17, 90, 60, 110},
              sim::hours(1), {}};
  c.config.priority.age_saturation = sim::hours(3);
  for (std::int64_t i = 0; i < 320; ++i) {
    sim::Time submit = sim::seconds(1 + i);
    c.queue.push_back({queued(1000 + i, 1 + (i * 37) % 331, submit,
                              static_cast<std::int32_t>(i % 5)),
                       submit});
  }
  return c;
}

// Exact-cancellation chains: within one user, (s, c), (s + a, c + b) and
// (s + 2a, c + 2b) have equal priority in exact arithmetic, so their
// computed doubles fall in either order. At 80,640 cores and the default
// weights and 24 h saturation that is a = 15 s against b = 28 cores; on a
// 1,440-core rack it is 30 s against 1 core.
QueueCase cancellation_chains(std::int32_t nodes, std::int32_t cores_per_node,
                              sim::Duration a, std::int64_t b) {
  QueueCase c{nodes, cores_per_node, ControllerConfig{}, {}, sim::hours(1), {}};
  std::int32_t first = nodes / 16;
  c.freed = {first, first, 2 * first, 4 * first, nodes - 8 * first};
  std::int64_t widest = cores_per_node - 2 * b;
  std::int64_t id = 1000;
  for (std::int64_t i = 0; i < 60; ++i) {
    sim::Time s = sim::seconds(1) + i * 7919;
    std::int64_t cores = 1 + (i * 53) % widest;
    auto user = static_cast<std::int32_t>(i % 4);
    for (std::int64_t m = 0; m < 3; ++m) {
      sim::Time submit = s + m * a;
      c.queue.push_back({queued(id++, cores + m * b, submit, user), submit});
    }
  }
  return c;
}

QueueCase cancellation_full_curie() {
  return cancellation_chains(320, 252, sim::seconds(15), 28);  // 80,640 cores
}

QueueCase cancellation_one_rack() {
  return cancellation_chains(90, 16, sim::seconds(30), 1);  // 1,440 cores
}

// Same-(submit_time, cores) bursts: each user submits runs of identical
// jobs, and each run ties a second run 15 s later and 28 cores wider.
QueueCase same_class_bursts() {
  QueueCase c{320, 252, ControllerConfig{}, {16, 32, 64, 208}, sim::hours(1), {}};
  std::int64_t id = 1000;
  for (std::int64_t burst = 0; burst < 12; ++burst) {
    auto user = static_cast<std::int32_t>(burst % 3);
    sim::Time s = sim::seconds(1) + burst * 61'000;
    std::int64_t cores = 8 + (burst * 29) % 180;
    for (std::int64_t n = 0; n < 9; ++n) {
      c.queue.push_back({queued(id++, cores, s, user), s});
      c.queue.push_back({queued(id++, cores + 28, s + sim::seconds(15), user),
                         s + sim::seconds(15)});
    }
  }
  return c;
}

// Saturation crossings: with a 90 min saturation and a release every
// 40 min, jobs cross into the saturated band between passes, and those
// submitted at 10 and 30 min reach wait == saturation exactly at a pass.
QueueCase saturation_crossing() {
  QueueCase c{320, 1024, weights(1000.0, 500.0, 2000.0), {10, 30, 50, 70, 160},
              sim::minutes(40), {}};
  c.config.priority.age_saturation = sim::minutes(90);
  for (std::int64_t i = 0; i < 240; ++i) {
    sim::Time submit = i % 8 == 0 ? sim::minutes(10 + 20 * (i % 16 == 0 ? 0 : 1))
                                  : sim::seconds(1) + i * 9'973;
    c.queue.push_back({queued(1000 + i, 1 + (i * 41) % 1000, submit,
                              static_cast<std::int32_t>(i % 6)),
                       submit});
  }
  return c;
}

// Fair-share shifts: a dominant fair-share weight, and blockers that
// charge users 0-3 with very different usage at every release, so each
// pass re-ranks whole users.
QueueCase fairshare_shift() {
  QueueCase c{320, 1024, weights(100.0, 50.0, 5000.0), {40, 8, 100, 12, 160},
              sim::hours(1), {}};
  for (std::int64_t i = 0; i < 300; ++i) {
    sim::Time submit = sim::seconds(1) + i * 3'001;
    c.queue.push_back({queued(1000 + i, 1 + (i * 97) % 1024, submit,
                              static_cast<std::int32_t>(i % 5)),
                       submit});
  }
  return c;
}

// Early submissions: jobs the controller sees before their own
// submit_time wait 0 (the age clamps), cross into the young band at their
// submit time — some between passes, some exactly at one — and saturate
// 2 h later.
QueueCase early_submission() {
  QueueCase c{320, 1024, weights(1000.0, 500.0, 2000.0), {20, 40, 60, 80, 120},
              sim::hours(1), {}};
  c.config.priority.age_saturation = sim::hours(2);
  for (std::int64_t i = 0; i < 260; ++i) {
    sim::Time seen = sim::seconds(1) + i * 11'003;
    sim::Time submit = i % 3 == 0 ? seen : seen + sim::minutes(20) * (i % 7);
    if (i % 13 == 0) submit = sim::hours(2);  // crosses exactly at a release
    c.queue.push_back({queued(1000 + i, 1 + (i * 59) % 1000, submit,
                              static_cast<std::int32_t>(i % 4)),
                       seen});
  }
  return c;
}

using NamedCase = std::tuple<const char*, QueueCase (*)()>;

class DeepQueueOrderTest
    : public ::testing::TestWithParam<std::tuple<NamedCase, std::size_t>> {};

TEST_P(DeepQueueOrderTest, StartsFollowFullPriorityOrder) {
  QueueCase c = std::get<1>(std::get<0>(GetParam()))();
  OrderRun run = run_case(c, std::get<1>(GetParam()));
  std::size_t released = static_cast<std::size_t>(
      std::accumulate(c.freed.begin(), c.freed.end(), 0));
  EXPECT_EQ(run.started.size(), std::min(released, c.queue.size()));
  EXPECT_EQ(run.pending_after, c.queue.size() - run.started.size());
  EXPECT_EQ(run.started, run.expected);
  EXPECT_GE(run.passes_audited, c.freed.size());
  EXPECT_GT(run.jobs_audited, c.queue.size());
}

// Depths below, at and above the default; the largest covers the whole
// queue, the smallest stops each walk a few jobs past the head.
INSTANTIATE_TEST_SUITE_P(
    Cases, DeepQueueOrderTest,
    ::testing::Combine(
        ::testing::Values(NamedCase("DeepQueue", &deep_queue),
                          NamedCase("CancellationFullCurie", &cancellation_full_curie),
                          NamedCase("CancellationOneRack", &cancellation_one_rack),
                          NamedCase("SameClassBursts", &same_class_bursts),
                          NamedCase("SaturationCrossing", &saturation_crossing),
                          NamedCase("FairShareShift", &fairshare_shift),
                          NamedCase("EarlySubmission", &early_submission)),
        ::testing::Values(std::size_t{8}, std::size_t{50}, std::size_t{400})),
    [](const auto& info) {
      return std::string(std::get<0>(std::get<0>(info.param))) + "_depth" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ps::rjms
