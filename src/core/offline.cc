#include "core/offline.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "cluster/degradation.h"
#include "util/check.h"
#include "util/log.h"

namespace ps::core {

OfflinePlanner::OfflinePlanner(rjms::Controller& controller, const PowercapConfig& config)
    : controller_(controller), config_(config) {}

Selection OfflinePlanner::finalize(std::vector<cluster::NodeId> nodes, std::int32_t racks,
                                   std::int32_t chassis, std::int32_t singles) const {
  const cluster::PowerModel& pm = controller_.cluster().power_model();
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
  // Idle-referenced: a fully-off rack removes its infra, its chassis infra
  // and every node's idle draw; a chassis removes chassis infra + idle
  // draws; a single node drops idle -> BMC.
  const cluster::Topology& topo = controller_.cluster().topology();
  double chassis_idle_saving =
      pm.chassis_infra_watts() +
      static_cast<double>(topo.nodes_per_chassis()) * pm.idle_watts();
  double rack_idle_saving =
      pm.rack_infra_watts() +
      static_cast<double>(topo.chassis_per_rack()) * chassis_idle_saving;
  sel.saving_vs_idle_watts = r * rack_idle_saving + c * chassis_idle_saving +
                             s * (pm.idle_watts() - pm.down_watts());
  return sel;
}

OfflinePlanner::GroupCounts OfflinePlanner::counts_for_saving(double need_watts) const {
  const cluster::Topology& topo = controller_.cluster().topology();
  const cluster::PowerModel& pm = controller_.cluster().power_model();
  PS_CHECK_MSG(need_watts >= 0.0, "offline: negative saving requested");

  double rack_accum = pm.rack_accumulated_saving();
  double chassis_accum = pm.chassis_accumulated_saving();
  double node_saving = pm.node_switch_off_saving();
  // Taking a whole rack beats the best same-or-fewer-node alternative when
  // the remaining need exceeds what (chassis_per_rack-1) chassis plus
  // (nodes_per_chassis-1) singles could save.
  double rack_threshold =
      static_cast<double>(topo.chassis_per_rack() - 1) * chassis_accum +
      static_cast<double>(topo.nodes_per_chassis() - 1) * node_saving;
  double chassis_threshold =
      static_cast<double>(topo.nodes_per_chassis() - 1) * node_saving;

  // Sequential subtraction, never k*accum: the committed goldens were
  // priced this way, and the container-walk oracle in
  // tests/offline_oracle.h mirrors it.
  GroupCounts counts;
  double remaining = need_watts;
  cluster::RackId next_rack = topo.racks() - 1;
  while (remaining > rack_threshold && counts.racks < topo.racks()) {
    remaining -= rack_accum;
    --next_rack;
    ++counts.racks;
  }
  cluster::ChassisId next_chassis = (next_rack + 1) * topo.chassis_per_rack() - 1;
  std::int32_t chassis_available = (next_rack + 1) * topo.chassis_per_rack();
  while (remaining > chassis_threshold && counts.chassis < chassis_available) {
    remaining -= chassis_accum;
    --next_chassis;
    ++counts.chassis;
  }
  if (remaining > 0.0 && next_chassis >= 0) {
    auto count = static_cast<std::int32_t>(std::ceil(remaining / node_saving));
    counts.singles = std::min(count, topo.nodes_per_chassis());
  }
  return counts;
}

std::vector<cluster::NodeId> OfflinePlanner::top_block(std::int32_t count) const {
  const cluster::Topology& topo = controller_.cluster().topology();
  std::vector<cluster::NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(count));
  for (cluster::NodeId n = topo.total_nodes() - count; n < topo.total_nodes(); ++n) {
    nodes.push_back(n);
  }
  return nodes;
}

Selection OfflinePlanner::select_for_saving(double need_watts) const {
  const cluster::Topology& topo = controller_.cluster().topology();
  GroupCounts counts = counts_for_saving(need_watts);
  // The rack→chassis→singles frontier always takes the top of the node-id
  // space, racks first, then the chassis directly below, then the top
  // singles of the next chassis — one contiguous block.
  std::int32_t total =
      counts.racks * topo.chassis_per_rack() * topo.nodes_per_chassis() +
      counts.chassis * topo.nodes_per_chassis() + counts.singles;
  return finalize(top_block(total), counts.racks, counts.chassis, counts.singles);
}

Selection OfflinePlanner::select_count(std::int32_t count) const {
  const cluster::Topology& topo = controller_.cluster().topology();
  count = std::clamp(count, 0, topo.total_nodes());
  // Contiguous block from the top of the id space; whole racks/chassis
  // emerge from contiguity. Count group coverage for the savings math.
  std::vector<cluster::NodeId> nodes = top_block(count);

  std::int32_t nodes_per_rack = topo.chassis_per_rack() * topo.nodes_per_chassis();
  std::int32_t whole_racks = 0;
  std::int32_t whole_chassis = 0;
  std::int32_t singles = 0;
  // Walk container boundaries from the top; whole racks/chassis fully
  // covered by the block are counted as groups, the remainder as singles.
  std::int32_t remaining = count;
  cluster::NodeId cursor = topo.total_nodes();
  while (remaining > 0) {
    if (cursor % nodes_per_rack == 0 && remaining >= nodes_per_rack) {
      ++whole_racks;
      remaining -= nodes_per_rack;
      cursor -= nodes_per_rack;
    } else if (cursor % topo.nodes_per_chassis() == 0 &&
               remaining >= topo.nodes_per_chassis()) {
      ++whole_chassis;
      remaining -= topo.nodes_per_chassis();
      cursor -= topo.nodes_per_chassis();
    } else {
      ++singles;
      --remaining;
      --cursor;
    }
  }
  return finalize(std::move(nodes), whole_racks, whole_chassis, singles);
}

Selection OfflinePlanner::select_scattered_count(std::int32_t count) const {
  const cluster::Topology& topo = controller_.cluster().topology();
  count = std::clamp(count, 0, topo.total_nodes());
  std::vector<cluster::NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(count));
  // Round-robin across chassis so no chassis is ever completed until every
  // chassis already contributes (bonus-free by construction).
  std::int32_t taken = 0;
  for (std::int32_t layer = 0; layer < topo.nodes_per_chassis() && taken < count; ++layer) {
    for (cluster::ChassisId c = topo.total_chassis() - 1; c >= 0 && taken < count; --c) {
      nodes.push_back(topo.first_node_of_chassis(c) + layer);
      ++taken;
    }
  }
  // Chassis only complete once every chassis already holds all-but-one
  // node; below that threshold the selection is pure singles.
  std::int32_t full_chassis = 0;
  std::int32_t last_layer_nodes =
      topo.total_chassis() * (topo.nodes_per_chassis() - 1);
  if (count > last_layer_nodes) full_chassis = count - last_layer_nodes;
  std::int32_t singles = count - full_chassis * topo.nodes_per_chassis();
  // (full_chassis can only be nonzero when nodes_per_chassis layers wrap,
  // in which case singles accounts for the still-incomplete chassis.)
  singles = std::max(singles, 0);
  std::sort(nodes.begin(), nodes.end());
  return finalize(std::move(nodes), 0, full_chassis, singles);
}

Selection OfflinePlanner::select_scattered_for_saving(double need_watts) const {
  const cluster::PowerModel& pm = controller_.cluster().power_model();
  auto count =
      static_cast<std::int32_t>(std::ceil(need_watts / pm.node_switch_off_saving()));
  return select_scattered_count(count);
}

model::ClusterParams OfflinePlanner::params_with_floor(double floor_ghz) const {
  const cluster::PowerModel& pm = controller_.cluster().power_model();
  const cluster::FrequencyTable& table = pm.frequencies();
  auto floor_index = table.lowest_at_or_above(floor_ghz);
  PS_CHECK_MSG(floor_index.has_value(), "offline: DVFS floor above the frequency table");
  cluster::DegradationModel degradation(table, config_.default_degmin);
  model::ClusterParams params;
  params.n = static_cast<double>(controller_.cluster().topology().total_nodes());
  params.p_max = pm.max_watts();
  params.p_min = table.watts(*floor_index);
  params.p_off = pm.down_watts();
  params.degmin = degradation.factor(*floor_index);
  return params;
}

OfflinePlan OfflinePlanner::compute_plan_impl(double cap_watts) const {
  const cluster::PowerModel& pm = controller_.cluster().power_model();
  OfflinePlan plan;
  plan.cap_watts = cap_watts;
  plan.node_budget_watts = cap_watts - pm.infra_watts_all_on();
  plan.required_saving_watts = std::max(0.0, pm.max_cluster_watts() - cap_watts);

  if (plan.required_saving_watts <= 0.0) {
    plan.split.mechanism = model::Mechanism::None;
    plan.split.work = static_cast<double>(controller_.cluster().topology().total_nodes());
    return plan;  // cap above worst-case draw: nothing to prepare
  }

  switch (config_.policy) {
    case Policy::None:
    case Policy::Idle:
    case Policy::Dvfs: {
      // No offline action; record what the model would say for reporting.
      model::ClusterParams params =
          params_with_floor(pm.frequencies().min().ghz);
      if (config_.policy == Policy::Dvfs) {
        plan.split.mechanism = model::Mechanism::DvfsOnly;
        plan.split.n_dvfs = model::n_dvfs_only(plan.node_budget_watts, params);
        plan.split.work = model::work_dvfs_only(plan.node_budget_watts, params);
      }
      return plan;
    }
    case Policy::Shut: {
      model::ClusterParams params =
          params_with_floor(pm.frequencies().min().ghz);
      plan.split.mechanism = model::Mechanism::SwitchOffOnly;
      plan.split.n_off = model::n_off_only(plan.node_budget_watts, params);
      plan.split.work = model::work_switch_off_only(plan.node_budget_watts, params);
      break;
    }
    case Policy::Mix: {
      model::ClusterParams params = params_with_floor(config_.mix_min_ghz);
      plan.split = model::optimal_split(plan.node_budget_watts, params, config_.rho);
      break;
    }
    case Policy::Auto: {
      model::ClusterParams params =
          params_with_floor(pm.frequencies().min().ghz);
      plan.split = model::optimal_split(plan.node_budget_watts, params, config_.rho);
      break;
    }
  }

  bool wants_shutdown = plan.split.mechanism == model::Mechanism::SwitchOffOnly ||
                        plan.split.mechanism == model::Mechanism::Both ||
                        plan.split.mechanism == model::Mechanism::Infeasible;
  if (!wants_shutdown || !config_.offline_enabled) return plan;

  if (plan.split.mechanism == model::Mechanism::SwitchOffOnly) {
    // Saving-driven: grouping reduces the node count below the model's
    // scattered-equivalent Noff.
    if (config_.selection == OfflineSelection::BonusGrouped) {
      plan.selection = select_for_saving(plan.required_saving_watts);
    } else {
      plan.selection = select_scattered_for_saving(plan.required_saving_watts);
    }
  } else {
    // Both/Infeasible: the model fixes the node count; grouping maximizes
    // the harvested bonus for that count.
    auto count = static_cast<std::int32_t>(std::ceil(plan.split.n_off));
    if (config_.selection == OfflineSelection::BonusGrouped) {
      plan.selection = select_count(count);
    } else {
      plan.selection = select_scattered_count(count);
    }
  }
  return plan;
}

const OfflinePlan& OfflinePlanner::compute_plan(double cap_watts) {
  std::uint64_t key = std::bit_cast<std::uint64_t>(cap_watts + 0.0);
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) {
    ++stats_.plan_cache_hits;
    return it->second;
  }
  return plan_cache_.emplace(key, compute_plan_impl(cap_watts)).first->second;
}

void OfflinePlanner::register_plan_reservation(OfflinePlan& plan, sim::Time start,
                                               sim::Time end) {
  if (plan.selection.nodes.empty()) return;
  // Projection admission guarantees zero violations only if the planned
  // saving is fully materialized when the window opens, which requires
  // strict (advance) blocking of the reserved nodes.
  bool permissive = !config_.strict_reservation_blocking &&
                    config_.admission != AdmissionMode::Projection;
  plan.reservation_id = controller_.add_switch_off_reservation(
      start, end, plan.selection.nodes, plan.selection.saving_vs_idle_watts,
      permissive);
  PS_LOG(Info) << "offline plan: " << model::describe(plan.split) << ", switching off "
               << plan.selection.nodes.size() << " nodes (" << plan.selection.whole_racks
               << " racks, " << plan.selection.whole_chassis << " chassis, "
               << plan.selection.singles << " singles), saving "
               << plan.selection.saving_vs_busy_watts << " W vs busy";
}

std::vector<OfflinePlan> OfflinePlanner::plan_windows(
    const std::vector<PlanWindow>& windows) {
  std::vector<OfflinePlan> plans;
  plans.reserve(windows.size());
  for (const PlanWindow& window : windows) {
    // One copy out of the cache per window — it becomes the caller-owned
    // plan carrying this window's reservation id.
    OfflinePlan plan = compute_plan(window.cap_watts);
    register_plan_reservation(plan, window.start, window.end);
    ++stats_.windows_planned;
    plans.push_back(std::move(plan));
  }
  return plans;
}

}  // namespace ps::core
