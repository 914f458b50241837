// Offline Algorithm 1 + bonus-aware grouped node selection (paper §III-B,
// §VI-A, Algorithm 1). Uses the full-scale Curie cluster so the Fig 2
// numbers apply exactly.
#include "core/offline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "cluster/curie.h"
#include "sim/simulator.h"

namespace ps::core {
namespace {

/// One powercap window through the schedule planner.
OfflinePlan plan_one(OfflinePlanner& planner, sim::Time start, sim::Time end,
                     double cap_watts) {
  return planner.plan_windows({{start, end, cap_watts}}).front();
}

class OfflineTest : public ::testing::Test {
 protected:
  OfflineTest()
      : cl_(cluster::curie::make_cluster()), controller_(sim_, cl_, {}) {}

  OfflinePlanner planner(PowercapConfig config = {}) {
    return OfflinePlanner(controller_, config);
  }

  sim::Simulator sim_;
  cluster::Cluster cl_;
  rjms::Controller controller_;
};

TEST_F(OfflineTest, PaperExampleChassisBeatsTwentyScatteredNodes) {
  // §VI-A: a 6 600 W reduction: scattered needs 20 nodes (6 880 W);
  // grouped takes one whole chassis: 18 nodes saving 6 692 W.
  OfflinePlanner p = planner();
  Selection grouped = p.select_for_saving(6600.0);
  EXPECT_EQ(grouped.nodes.size(), 18u);
  EXPECT_EQ(grouped.whole_chassis, 1);
  EXPECT_DOUBLE_EQ(grouped.saving_vs_busy_watts, 6692.0);

  Selection scattered = p.select_scattered_for_saving(6600.0);
  EXPECT_EQ(scattered.nodes.size(), 20u);
  EXPECT_DOUBLE_EQ(scattered.saving_vs_busy_watts, 20 * 344.0);
}

TEST_F(OfflineTest, SmallNeedUsesSingles) {
  OfflinePlanner p = planner();
  Selection one = p.select_for_saving(344.0);
  EXPECT_EQ(one.nodes.size(), 1u);
  EXPECT_EQ(one.singles, 1);
  Selection three = p.select_for_saving(1000.0);
  EXPECT_EQ(three.nodes.size(), 3u);  // ceil(1000/344)
}

TEST_F(OfflineTest, LargeNeedTakesWholeRacks) {
  OfflinePlanner p = planner();
  Selection sel = p.select_for_saving(40000.0);
  EXPECT_EQ(sel.whole_racks, 1);
  EXPECT_GE(sel.saving_vs_busy_watts, 40000.0);
  // Rack (90) + ceil(5640/344)=17 singles.
  EXPECT_EQ(sel.nodes.size(), 107u);
}

TEST_F(OfflineTest, SavingAlwaysCoversNeed) {
  OfflinePlanner p = planner();
  for (double need = 0.0; need < 1.5e6; need += 37'777.0) {
    Selection sel = p.select_for_saving(need);
    EXPECT_GE(sel.saving_vs_busy_watts + 1e-9, std::min(need, 1'804'320.0 + 119'840.0))
        << "need " << need;
    // Grouping never exceeds the machine.
    EXPECT_LE(sel.nodes.size(), 5040u);
  }
}

TEST_F(OfflineTest, GroupedNeedsNoMoreNodesThanScattered) {
  OfflinePlanner p = planner();
  for (double need : {500.0, 3000.0, 6600.0, 12000.0, 40000.0, 100000.0, 400000.0}) {
    Selection grouped = p.select_for_saving(need);
    Selection scattered = p.select_scattered_for_saving(need);
    EXPECT_LE(grouped.nodes.size(), scattered.nodes.size()) << "need " << need;
  }
}

TEST_F(OfflineTest, SelectionNodesAreUniqueAndValid) {
  OfflinePlanner p = planner();
  Selection sel = p.select_for_saving(123456.0);
  std::set<cluster::NodeId> unique(sel.nodes.begin(), sel.nodes.end());
  EXPECT_EQ(unique.size(), sel.nodes.size());
  for (cluster::NodeId n : sel.nodes) EXPECT_TRUE(cl_.topology().valid_node(n));
}

TEST_F(OfflineTest, SelectCountAlignsToContainers) {
  OfflinePlanner p = planner();
  Selection chassis = p.select_count(18);
  EXPECT_EQ(chassis.whole_chassis, 1);
  EXPECT_EQ(chassis.singles, 0);
  EXPECT_DOUBLE_EQ(chassis.saving_vs_busy_watts, 6692.0);

  Selection rack = p.select_count(90);
  EXPECT_EQ(rack.whole_racks, 1);
  EXPECT_DOUBLE_EQ(rack.saving_vs_busy_watts, 34360.0);

  Selection mixed = p.select_count(20);
  EXPECT_EQ(mixed.whole_chassis, 1);
  EXPECT_EQ(mixed.singles, 2);
  EXPECT_EQ(mixed.nodes.size(), 20u);
  EXPECT_DOUBLE_EQ(mixed.saving_vs_busy_watts, 6692.0 + 2 * 344.0);
}

TEST_F(OfflineTest, IdleReferencedSavingsMatchHierarchy) {
  OfflinePlanner p = planner();
  // chassis: 248 + 18*117 = 2 354 W; rack: 900 + 5*2354 = 12 670 W;
  // single: 117 - 14 = 103 W.
  EXPECT_DOUBLE_EQ(p.select_count(18).saving_vs_idle_watts, 2354.0);
  EXPECT_DOUBLE_EQ(p.select_count(90).saving_vs_idle_watts, 12670.0);
  EXPECT_DOUBLE_EQ(p.select_count(1).saving_vs_idle_watts, 103.0);
}

TEST_F(OfflineTest, ShutPolicyPlansSwitchOffReservation) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  OfflinePlanner p = planner(config);
  double cap = 0.6 * cl_.power_model().max_cluster_watts();
  OfflinePlan plan = plan_one(p, sim::hours(1), sim::hours(2), cap);
  EXPECT_EQ(plan.split.mechanism, model::Mechanism::SwitchOffOnly);
  EXPECT_FALSE(plan.selection.nodes.empty());
  EXPECT_NE(plan.reservation_id, 0);
  // Reservation registered and blocking.
  const rjms::Reservation& res = controller_.reservations().find(plan.reservation_id);
  EXPECT_EQ(res.kind, rjms::ReservationKind::SwitchOff);
  EXPECT_DOUBLE_EQ(res.planned_saving_watts, plan.selection.saving_vs_idle_watts);
  // Worst-case power after shutdown fits the cap.
  EXPECT_LE(cl_.power_model().max_cluster_watts() - plan.selection.saving_vs_busy_watts,
            cap + 1e-6);
}

TEST_F(OfflineTest, MixPolicyBelowThresholdUsesBothMechanisms) {
  PowercapConfig config;
  config.policy = Policy::Mix;
  OfflinePlanner p = planner(config);
  double cap = 0.4 * cl_.power_model().max_cluster_watts();
  OfflinePlan plan = plan_one(p, 0, sim::hours(1), cap);
  EXPECT_EQ(plan.split.mechanism, model::Mechanism::Both);
  EXPECT_GT(plan.split.n_off, 0.0);
  EXPECT_GT(plan.split.n_dvfs, 0.0);
  EXPECT_EQ(plan.selection.nodes.size(),
            static_cast<std::size_t>(std::ceil(plan.split.n_off)));
  EXPECT_NE(plan.reservation_id, 0);
}

TEST_F(OfflineTest, MixPolicyAboveThresholdUsesSingleMechanism) {
  PowercapConfig config;
  config.policy = Policy::Mix;
  OfflinePlanner p = planner(config);
  double cap = 0.9 * cl_.power_model().max_cluster_watts();
  OfflinePlan plan = plan_one(p, 0, sim::hours(1), cap);
  // degmin at the 2.0 floor is 1.29; published rho < 0 -> switch-off.
  EXPECT_EQ(plan.split.mechanism, model::Mechanism::SwitchOffOnly);
}

TEST_F(OfflineTest, DvfsPolicyMakesNoReservation) {
  PowercapConfig config;
  config.policy = Policy::Dvfs;
  OfflinePlanner p = planner(config);
  OfflinePlan plan = plan_one(p, 0, sim::hours(1),
                              0.6 * cl_.power_model().max_cluster_watts());
  EXPECT_EQ(plan.reservation_id, 0);
  EXPECT_TRUE(plan.selection.nodes.empty());
  EXPECT_EQ(plan.split.mechanism, model::Mechanism::DvfsOnly);
  EXPECT_GT(plan.split.n_dvfs, 0.0);
}

TEST_F(OfflineTest, IdlePolicyDoesNothingOffline) {
  PowercapConfig config;
  config.policy = Policy::Idle;
  OfflinePlanner p = planner(config);
  OfflinePlan plan = plan_one(p, 0, sim::hours(1),
                              0.6 * cl_.power_model().max_cluster_watts());
  EXPECT_EQ(plan.reservation_id, 0);
  // No switch-off plan over the window, by query and by a scan of the book.
  const rjms::ReservationBook& book = controller_.reservations();
  std::size_t queried = 0;
  book.for_each_overlapping(rjms::ReservationKind::SwitchOff, 0, sim::hours(1),
                            [&queried](const rjms::Reservation&) { ++queried; });
  std::size_t scanned = 0;
  for (const rjms::Reservation& r : book.all()) {
    if (r.kind == rjms::ReservationKind::SwitchOff && r.overlaps(0, sim::hours(1))) ++scanned;
  }
  EXPECT_EQ(queried, 0u);
  EXPECT_EQ(scanned, 0u);
}

TEST_F(OfflineTest, CapAboveMaxNeedsNoAction) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  OfflinePlanner p = planner(config);
  OfflinePlan plan = plan_one(p, 0, sim::hours(1),
                              cl_.power_model().max_cluster_watts() + 1000.0);
  EXPECT_EQ(plan.split.mechanism, model::Mechanism::None);
  EXPECT_EQ(plan.reservation_id, 0);
}

TEST_F(OfflineTest, OfflineDisabledSkipsReservation) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  config.offline_enabled = false;
  OfflinePlanner p = planner(config);
  OfflinePlan plan = plan_one(p, 0, sim::hours(1),
                              0.6 * cl_.power_model().max_cluster_watts());
  EXPECT_EQ(plan.split.mechanism, model::Mechanism::SwitchOffOnly);
  EXPECT_EQ(plan.reservation_id, 0);
}

TEST_F(OfflineTest, ScatteredSelectionConfigured) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  config.selection = OfflineSelection::Scattered;
  OfflinePlanner p = planner(config);
  OfflinePlan plan = plan_one(p, 0, sim::hours(1),
                              0.6 * cl_.power_model().max_cluster_watts());
  EXPECT_EQ(plan.selection.whole_racks, 0);
  // Scattered needs >= as many nodes as grouped for the same saving.
  PowercapConfig grouped_config;
  grouped_config.policy = Policy::Shut;
  sim::Simulator sim2;
  cluster::Cluster cl2 = cluster::curie::make_cluster();
  rjms::Controller ctrl2(sim2, cl2, {});
  OfflinePlanner grouped(ctrl2, grouped_config);
  OfflinePlan gplan = plan_one(grouped, 0, sim::hours(1),
                               0.6 * cl2.power_model().max_cluster_watts());
  EXPECT_GE(plan.selection.nodes.size(), gplan.selection.nodes.size());
}

TEST_F(OfflineTest, AutoPolicyFollowsModelDecision) {
  PowercapConfig config;
  config.policy = Policy::Auto;
  OfflinePlanner p = planner(config);
  // 80%: published rho (degmin 1.63) < 0 -> switch-off.
  OfflinePlan plan = plan_one(p, 0, sim::hours(1),
                              0.8 * cl_.power_model().max_cluster_watts());
  EXPECT_EQ(plan.split.mechanism, model::Mechanism::SwitchOffOnly);
  // 40%: below the 1.2 GHz feasibility threshold -> both.
  sim::Simulator sim2;
  cluster::Cluster cl2 = cluster::curie::make_cluster();
  rjms::Controller ctrl2(sim2, cl2, {});
  OfflinePlanner p2(ctrl2, config);
  OfflinePlan plan2 = plan_one(p2, 0, sim::hours(1),
                               0.4 * cl2.power_model().max_cluster_watts());
  EXPECT_EQ(plan2.split.mechanism, model::Mechanism::Both);
}

}  // namespace
}  // namespace ps::core
