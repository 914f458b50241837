// Multi-window offline planning: plans served from the per-cap plan cache
// must be bit-identical to fresh per-window planning, and every grouped
// selection must match the container-walk oracle (tests/offline_oracle.h)
// on both the full Curie machine and the 2-rack machine the workloads use;
// multi-window scenarios must wire every window through reservations,
// hooks and result reporting.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/curie.h"
#include "core/experiment.h"
#include "core/offline.h"
#include "core/powercap_manager.h"
#include "offline_oracle.h"
#include "scenario_fingerprint.h"
#include "sim/simulator.h"

namespace ps::core {
namespace {

using testing::expect_plans_identical;
using testing::expect_plans_match_oracle;
using testing::expect_selection_matches_oracle;
using testing::expect_selections_identical;
using testing::fingerprint;
using testing::oracle_select_count;
using testing::oracle_select_for_saving;

class MultiWindowTest : public ::testing::Test {
 protected:
  MultiWindowTest()
      : cl_(cluster::curie::make_cluster()), controller_(sim_, cl_, {}) {}

  sim::Simulator sim_;
  cluster::Cluster cl_;
  rjms::Controller controller_;
};

TEST_F(MultiWindowTest, PlanCacheMatchesFreshPlanningOnTwelveWindowDay) {
  PowercapConfig config;
  config.policy = Policy::Mix;
  OfflinePlanner planner(controller_, config);

  // A 24 h day of 12 two-hour windows cycling three cap depths — repeated
  // caps are the regime the plan cache targets.
  double max_watts = cl_.power_model().max_cluster_watts();
  std::vector<PlanWindow> windows;
  const double lambdas[] = {0.8, 0.5, 0.4};
  for (int w = 0; w < 12; ++w) {
    windows.push_back({sim::hours(2 * w), sim::hours(2 * w + 2),
                       lambdas[w % 3] * max_watts});
  }
  std::vector<OfflinePlan> plans = planner.plan_windows(windows);
  ASSERT_EQ(plans.size(), windows.size());

  // Every plan bit-identical to a cache-cold planner's, its selection to
  // the container walk.
  for (std::size_t w = 0; w < windows.size(); ++w) {
    OfflinePlanner fresh(controller_, config);
    expect_plans_identical(plans[w], fresh.compute_plan(windows[w].cap_watts));
    expect_selection_matches_oracle(cl_, plans[w]);
    EXPECT_NE(plans[w].reservation_id, 0) << "window " << w;
  }
  // And genuinely incremental: 3 distinct caps priced once, 9 reused.
  EXPECT_EQ(planner.stats().windows_planned, 12u);
  EXPECT_EQ(planner.stats().plan_cache_hits, 9u);

  // Each window got its own switch-off reservation over its own span.
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const rjms::Reservation& res = controller_.reservations().find(plans[w].reservation_id);
    EXPECT_EQ(res.kind, rjms::ReservationKind::SwitchOff);
    EXPECT_EQ(res.start, windows[w].start);
    EXPECT_EQ(res.end, windows[w].end);
    EXPECT_EQ(res.nodes, plans[w].selection.nodes);
  }
}

TEST_F(MultiWindowTest, PlanWindowsMatchesPerWindowPlanning) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  double max_watts = cl_.power_model().max_cluster_watts();

  OfflinePlanner joint(controller_, config);
  std::vector<PlanWindow> windows;
  for (int w = 0; w < 8; ++w) {
    windows.push_back(
        {sim::hours(3 * w), sim::hours(3 * w + 1), (0.4 + 0.05 * w) * max_watts});
  }
  std::vector<OfflinePlan> joint_plans = joint.plan_windows(windows);

  // Fresh controller, one single-window plan_windows call per window (the
  // pre-multi-window code path).
  sim::Simulator sim2;
  cluster::Cluster cl2 = cluster::curie::make_cluster();
  rjms::Controller ctrl2(sim2, cl2, {});
  OfflinePlanner per_window(ctrl2, config);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    OfflinePlan plan = per_window.plan_windows({windows[w]}).front();
    expect_plans_identical(joint_plans[w], plan);
    expect_selection_matches_oracle(cl_, plan);
  }
}

/// Every saving need from 0 to `step` past the machine's maximum grouped
/// saving (all racks off), in `step` increments, against the oracle.
void expect_saving_selections_match_oracle(const cluster::Cluster& cl,
                                           const OfflinePlanner& planner, double step) {
  double max_saving = cl.topology().racks() * cl.power_model().rack_accumulated_saving();
  for (double need = 0.0; need < max_saving + 2 * step; need += step) {
    SCOPED_TRACE(::testing::Message() << "need " << need);
    expect_selections_identical(planner.select_for_saving(need),
                                oracle_select_for_saving(cl, need));
  }
}

TEST_F(MultiWindowTest, SelectorsMatchContainerWalkOnCurie) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  OfflinePlanner planner(controller_, config);
  expect_saving_selections_match_oracle(cl_, planner, 23'456.0);
  for (std::int32_t count : {-1, 0, 1, 17, 18, 19, 89, 90, 91, 512, 5039, 5040, 5041}) {
    SCOPED_TRACE(::testing::Message() << "count " << count);
    expect_selections_identical(planner.select_count(count),
                                oracle_select_count(cl_, count));
  }
}

TEST(MultiWindowSelection, SelectorsMatchContainerWalkOnTwoRacks) {
  sim::Simulator sim;
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(2);
  rjms::Controller controller(sim, cl, {});
  PowercapConfig config;
  config.policy = Policy::Shut;
  OfflinePlanner planner(controller, config);
  // Finer than one node's saving, so every singles count is visited.
  expect_saving_selections_match_oracle(cl, planner, 97.0);
  // Every count, one past each end included.
  for (std::int32_t count = -1; count <= cl.topology().total_nodes() + 1; ++count) {
    SCOPED_TRACE(::testing::Message() << "count " << count);
    expect_selections_identical(planner.select_count(count),
                                oracle_select_count(cl, count));
  }
  // A need past the maximum switches the whole machine off, no more.
  Selection all = planner.select_for_saving(1e9);
  EXPECT_EQ(all.whole_racks, 2);
  EXPECT_EQ(static_cast<std::int32_t>(all.nodes.size()), cl.topology().total_nodes());
}

TEST(MultiWindowScenario, EndToEndPlansMatchOracle) {
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "multiwindow";
  params.span = sim::hours(4);
  params.job_count = 500;
  params.w_huge = 0.0;
  ScenarioConfig config;
  config.custom_workload = params;
  config.racks = 2;
  config.seed = 20150525;
  config.powercap.policy = Policy::Mix;
  config.powercap.audit_admission_cache = true;
  for (int w = 0; w < 8; ++w) {
    config.cap_windows.push_back(
        {w % 2 == 0 ? 0.5 : 0.7, sim::minutes(25 * w), sim::minutes(15), -1});
  }
  ScenarioResult result = run_scenario(config);
  EXPECT_GT(result.stats.started, 0u);
  ASSERT_EQ(result.windows.size(), 8u);
  EXPECT_EQ(result.plans.size(), 8u);
  EXPECT_TRUE(result.has_plan);
  EXPECT_EQ(result.cap_watts, result.windows.front().watts);
  for (const auto& window : result.windows) EXPECT_GT(window.watts, 0.0);
  expect_plans_match_oracle(config, result);

  // Determinism across repeats, like the Fig-8 fence.
  ScenarioResult second = run_scenario(config);
  EXPECT_EQ(fingerprint(result), fingerprint(second));
}

TEST(MultiWindowScenario, MixedAnnounceAndAdvanceWindowsPairWindowsWithPlans) {
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "mixed";
  params.span = sim::hours(1);
  params.job_count = 200;
  params.w_huge = 0.0;
  ScenarioConfig config;
  config.custom_workload = params;
  config.racks = 1;
  config.seed = 20150525;
  config.powercap.policy = Policy::Shut;
  // Config order: announce-typed first, advance second, plus one announced
  // past the horizon (must vanish from windows AND plans).
  config.cap_windows = {
      {0.50, sim::minutes(30), sim::minutes(10), sim::minutes(30)},
      {0.70, sim::minutes(10), sim::minutes(10), -1},
      {0.60, sim::minutes(40), sim::minutes(5), sim::hours(2)},
  };
  ScenarioResult result = run_scenario(config);
  // Advance windows first, then announce-typed by announce time.
  ASSERT_EQ(result.windows.size(), 2u);
  ASSERT_EQ(result.plans.size(), 2u);
  double max_watts = result.max_cluster_watts;
  EXPECT_DOUBLE_EQ(result.windows[0].watts, 0.70 * max_watts);
  EXPECT_DOUBLE_EQ(result.windows[1].watts, 0.50 * max_watts);
  // windows[i] pairs with plans[i].
  EXPECT_EQ(result.plans[0].cap_watts, result.windows[0].watts);
  EXPECT_EQ(result.plans[1].cap_watts, result.windows[1].watts);
  // The legacy first-window fields follow the same ordering.
  EXPECT_EQ(result.cap_watts, result.windows.front().watts);
  EXPECT_EQ(result.plan.cap_watts, result.plans.front().cap_watts);
}

TEST(MultiWindowScenario, PolicyNoneSkipsScheduleLikeLegacyGate) {
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "none-gate";
  params.span = sim::hours(1);
  params.job_count = 200;
  params.w_huge = 0.0;
  ScenarioConfig single;
  single.custom_workload = params;
  single.racks = 1;
  single.seed = 20150525;
  single.powercap.policy = Policy::None;
  single.cap_lambda = 0.5;

  ScenarioConfig multi = single;
  multi.cap_lambda = 1.0;
  multi.cap_windows = {{0.5, sim::minutes(10), sim::minutes(20), -1}};

  ScenarioResult a = run_scenario(single);
  ScenarioResult b = run_scenario(multi);
  EXPECT_EQ(a.cap_watts, 0.0);
  EXPECT_EQ(b.cap_watts, 0.0);
  EXPECT_TRUE(b.windows.empty());
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(MultiWindowScenario, LegacySingleWindowUnchangedByNewPath) {
  // The single-window config expressed both ways must agree bit-for-bit.
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "legacy";
  params.span = sim::hours(1);
  params.job_count = 300;
  params.w_huge = 0.0;
  ScenarioConfig legacy;
  legacy.custom_workload = params;
  legacy.racks = 2;
  legacy.seed = 20150525;
  legacy.powercap.policy = Policy::Shut;
  legacy.cap_lambda = 0.6;

  ScenarioConfig windows = legacy;
  windows.cap_lambda = 1.0;
  sim::Time start = (params.span - sim::hours(1)) / 2;
  windows.cap_windows = {{0.6, start, sim::hours(1), -1}};

  EXPECT_EQ(fingerprint(run_scenario(legacy)), fingerprint(run_scenario(windows)));
}

}  // namespace
}  // namespace ps::core
