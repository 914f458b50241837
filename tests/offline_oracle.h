// Container-walk oracle for the offline planner's grouped node selection
// (paper Algorithm 1). OfflinePlanner materializes every grouped selection
// as the top contiguous block of the node-id space; this oracle rebuilds it
// the long way — walk the rack, chassis and node lists from the top,
// collect their ids, sort — so tests can check the block arithmetic
// against the topology instead of against itself.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/curie.h"
#include "core/experiment.h"
#include "core/offline.h"
#include "rjms/controller.h"
#include "sim/simulator.h"

namespace ps::core::testing {

/// Savings of a grouped selection, priced from the power model.
inline Selection oracle_finalize(const cluster::Cluster& cl,
                                 std::vector<cluster::NodeId> nodes,
                                 std::int32_t racks, std::int32_t chassis,
                                 std::int32_t singles) {
  const cluster::PowerModel& pm = cl.power_model();
  const cluster::Topology& topo = cl.topology();
  std::sort(nodes.begin(), nodes.end());
  Selection sel;
  sel.nodes = std::move(nodes);
  sel.whole_racks = racks;
  sel.whole_chassis = chassis;
  sel.singles = singles;
  double r = racks;
  double c = chassis;
  double s = singles;
  sel.saving_vs_busy_watts = r * pm.rack_accumulated_saving() +
                             c * pm.chassis_accumulated_saving() +
                             s * pm.node_switch_off_saving();
  double chassis_idle = pm.chassis_infra_watts() +
                        static_cast<double>(topo.nodes_per_chassis()) * pm.idle_watts();
  double rack_idle = pm.rack_infra_watts() +
                     static_cast<double>(topo.chassis_per_rack()) * chassis_idle;
  sel.saving_vs_idle_watts = r * rack_idle + c * chassis_idle +
                             s * (pm.idle_watts() - pm.down_watts());
  return sel;
}

/// Grouped selection saving at least `need_watts` vs busy: whole racks from
/// the top while the need beats what a rack's worth of smaller groups could
/// save, then whole chassis below them on the same rule, then the top
/// singles of the next chassis.
inline Selection oracle_select_for_saving(const cluster::Cluster& cl, double need_watts) {
  const cluster::Topology& topo = cl.topology();
  const cluster::PowerModel& pm = cl.power_model();
  double node_saving = pm.node_switch_off_saving();
  double chassis_threshold =
      static_cast<double>(topo.nodes_per_chassis() - 1) * node_saving;
  double rack_threshold =
      static_cast<double>(topo.chassis_per_rack() - 1) * pm.chassis_accumulated_saving() +
      chassis_threshold;

  std::vector<cluster::NodeId> nodes;
  std::int32_t racks = 0;
  std::int32_t chassis = 0;
  std::int32_t singles = 0;
  double remaining = need_watts;
  cluster::RackId rack = topo.racks() - 1;
  for (; rack >= 0 && remaining > rack_threshold; --rack, ++racks) {
    std::vector<cluster::NodeId> ids = topo.nodes_of_rack(rack);
    nodes.insert(nodes.end(), ids.begin(), ids.end());
    remaining -= pm.rack_accumulated_saving();
  }
  cluster::ChassisId ch = (rack + 1) * topo.chassis_per_rack() - 1;
  for (; ch >= 0 && remaining > chassis_threshold; --ch, ++chassis) {
    std::vector<cluster::NodeId> ids = topo.nodes_of_chassis(ch);
    nodes.insert(nodes.end(), ids.begin(), ids.end());
    remaining -= pm.chassis_accumulated_saving();
  }
  if (remaining > 0.0 && ch >= 0) {
    singles = std::min(static_cast<std::int32_t>(std::ceil(remaining / node_saving)),
                       topo.nodes_per_chassis());
    std::vector<cluster::NodeId> ids = topo.nodes_of_chassis(ch);
    nodes.insert(nodes.end(), ids.end() - singles, ids.end());
  }
  return oracle_finalize(cl, std::move(nodes), racks, chassis, singles);
}

/// Grouped selection of exactly `count` nodes (clamped to the machine):
/// whole racks from the top, then whole chassis, then the top singles of
/// the next chassis.
inline Selection oracle_select_count(const cluster::Cluster& cl, std::int32_t count) {
  const cluster::Topology& topo = cl.topology();
  std::int32_t remaining = std::clamp(count, 0, topo.total_nodes());
  std::int32_t per_rack = topo.chassis_per_rack() * topo.nodes_per_chassis();
  std::vector<cluster::NodeId> nodes;
  std::int32_t racks = 0;
  std::int32_t chassis = 0;
  cluster::RackId rack = topo.racks() - 1;
  for (; remaining >= per_rack; --rack, ++racks, remaining -= per_rack) {
    std::vector<cluster::NodeId> ids = topo.nodes_of_rack(rack);
    nodes.insert(nodes.end(), ids.begin(), ids.end());
  }
  cluster::ChassisId ch = (rack + 1) * topo.chassis_per_rack() - 1;
  for (; remaining >= topo.nodes_per_chassis();
       --ch, ++chassis, remaining -= topo.nodes_per_chassis()) {
    std::vector<cluster::NodeId> ids = topo.nodes_of_chassis(ch);
    nodes.insert(nodes.end(), ids.begin(), ids.end());
  }
  if (remaining > 0) {
    std::vector<cluster::NodeId> ids = topo.nodes_of_chassis(ch);
    nodes.insert(nodes.end(), ids.end() - remaining, ids.end());
  }
  return oracle_finalize(cl, std::move(nodes), racks, chassis, remaining);
}

inline void expect_selections_identical(const Selection& a, const Selection& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.whole_racks, b.whole_racks);
  EXPECT_EQ(a.whole_chassis, b.whole_chassis);
  EXPECT_EQ(a.singles, b.singles);
  EXPECT_EQ(a.saving_vs_busy_watts, b.saving_vs_busy_watts);
  EXPECT_EQ(a.saving_vs_idle_watts, b.saving_vs_idle_watts);
}

inline void expect_plans_identical(const OfflinePlan& a, const OfflinePlan& b) {
  EXPECT_EQ(a.split.mechanism, b.split.mechanism);
  EXPECT_EQ(a.split.n_off, b.split.n_off);
  EXPECT_EQ(a.split.n_dvfs, b.split.n_dvfs);
  EXPECT_EQ(a.split.work, b.split.work);
  EXPECT_EQ(a.cap_watts, b.cap_watts);
  EXPECT_EQ(a.node_budget_watts, b.node_budget_watts);
  EXPECT_EQ(a.required_saving_watts, b.required_saving_watts);
  expect_selections_identical(a.selection, b.selection);
}

/// Checks a plan's grouped selection against the oracle: a saving-driven
/// split (SwitchOffOnly) must select for the required saving, a count-driven
/// one (Both/Infeasible) for ceil(n_off) nodes.
inline void expect_selection_matches_oracle(const cluster::Cluster& cl,
                                            const OfflinePlan& plan) {
  switch (plan.split.mechanism) {
    case model::Mechanism::SwitchOffOnly:
      expect_selections_identical(plan.selection,
                                  oracle_select_for_saving(cl, plan.required_saving_watts));
      break;
    case model::Mechanism::Both:
    case model::Mechanism::Infeasible:
      expect_selections_identical(
          plan.selection,
          oracle_select_count(cl, static_cast<std::int32_t>(std::ceil(plan.split.n_off))));
      break;
    default:
      EXPECT_TRUE(plan.selection.nodes.empty());
  }
}

/// Checks every plan a bonus-grouped, offline-enabled scenario made: split
/// and budgets against a fresh planner for the same cap (no plan cache
/// shared with the run), the selection against the container walk.
inline void expect_plans_match_oracle(const ScenarioConfig& config,
                                      const ScenarioResult& result) {
  ASSERT_EQ(config.powercap.selection, OfflineSelection::BonusGrouped);
  ASSERT_TRUE(config.powercap.offline_enabled);
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(config.racks);
  sim::Simulator sim;
  rjms::Controller controller(sim, cl, config.controller);
  for (std::size_t i = 0; i < result.plans.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "plan " << i);
    const OfflinePlan& plan = result.plans[i];
    OfflinePlanner fresh(controller, config.powercap);
    expect_plans_identical(plan, fresh.compute_plan(plan.cap_watts));
    expect_selection_matches_oracle(cl, plan);
  }
}

}  // namespace ps::core::testing
