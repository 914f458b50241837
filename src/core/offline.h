// Offline phase of the powercap algorithm (paper Algorithm 1 + §III-B).
//
// When a powercap reservation is created, the planner decides the mechanism
// split using the §III model and — when shutdown is involved — selects
// *which* nodes to switch off. Selection groups contiguous nodes into whole
// racks and chassis so the infrastructure "power bonus" is harvested: a
// full chassis saves 6 692 W (vs 18x344 = 6 192 W scattered), a full rack
// 34 360 W. The paper's example: a 6 600 W reduction needs 20 scattered
// nodes but only one 18-node chassis. A grouped selection is always the
// top contiguous block of the node-id space (racks, then chassis, then
// singles), so it is materialized as an id range, never by a container
// walk and sort.
//
// Multi-window schedules (the paper's §VII 24 h day holds several cap
// windows) are planned by plan_windows(): a plan's content depends only on
// the cap watts (never on the window's placement in time), so the planner
// memoizes whole plans per distinct cap.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "core/policy.h"
#include "rjms/controller.h"

namespace ps::core {

/// A concrete set of nodes to switch off, with its grouping breakdown and
/// the two savings the rest of the system needs.
struct Selection {
  std::vector<cluster::NodeId> nodes;
  std::int32_t whole_racks = 0;
  std::int32_t whole_chassis = 0;  ///< beyond those inside whole racks
  std::int32_t singles = 0;

  /// Saving vs every selected node busy at fmax (what the cap planning
  /// guards against): racks*34 360 + chassis*6 692 + singles*344 on Curie.
  double saving_vs_busy_watts = 0.0;

  /// Saving vs every selected node idle (what online power projections
  /// subtract from the all-idle baseline): racks*12 670 + chassis*2 354 +
  /// singles*103 on Curie.
  double saving_vs_idle_watts = 0.0;
};

struct OfflinePlan {
  model::Split split;                      ///< the model's decision
  Selection selection;                     ///< empty when no shutdown
  double cap_watts = 0.0;
  double node_budget_watts = 0.0;          ///< cap minus full infrastructure
  double required_saving_watts = 0.0;      ///< busy-referenced need
  rjms::ReservationId reservation_id = 0;  ///< 0 when no reservation was made
};

/// One cap window of a multi-window schedule handed to plan_windows().
struct PlanWindow {
  sim::Time start = 0;
  sim::Time end = 0;  ///< exclusive; sim::kTimeMax = open-ended
  double cap_watts = 0.0;
};

class OfflinePlanner {
 public:
  OfflinePlanner(rjms::Controller& controller, const PowercapConfig& config);

  /// Runs Algorithm 1 for each powercap window of a schedule, registering
  /// one switch-off reservation per shutdown-bearing window. Windows
  /// sharing a cap reuse the memoized plan (split + selection) outright.
  /// Bit-identical to calling it once per window.
  std::vector<OfflinePlan> plan_windows(const std::vector<PlanWindow>& windows);

  /// Plan content for one cap — split, selection, budgets — without
  /// placing a reservation (a plan never depends on the window's position
  /// in time, only its watts). Memoized per distinct cap. The reference
  /// points into the cache: valid until the planner is destroyed, cache
  /// hits are copy-free (the node vector can hold thousands of ids).
  const OfflinePlan& compute_plan(double cap_watts);

  // --- selection primitives (exposed for tests and ablation benches) ------

  /// Grouped selection achieving at least `need_watts` of busy-referenced
  /// saving with as few nodes as possible (racks, then chassis, then
  /// contiguous singles, from the top of the node-id space).
  Selection select_for_saving(double need_watts) const;

  /// Grouped selection of exactly `count` nodes (whole racks/chassis first).
  Selection select_count(std::int32_t count) const;

  /// Scattered selections (no grouping — ablation): one node per chassis,
  /// round-robin, so no bonus is ever harvested.
  Selection select_scattered_for_saving(double need_watts) const;
  Selection select_scattered_count(std::int32_t count) const;

  /// Model parameters for a given DVFS floor (GHz); p_min/degmin follow the
  /// floor, matching the MIX variant of §VI-B.
  model::ClusterParams params_with_floor(double floor_ghz) const;

  /// Plan-cache observability (tests, benches).
  struct Stats {
    std::uint64_t windows_planned = 0;
    std::uint64_t plan_cache_hits = 0;  ///< whole plan reused
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  /// Grouping decision of select_for_saving: how many whole racks, whole
  /// chassis and singles a saving need takes.
  struct GroupCounts {
    std::int32_t racks = 0;
    std::int32_t chassis = 0;
    std::int32_t singles = 0;
  };
  GroupCounts counts_for_saving(double need_watts) const;

  /// Builds a Selection from sorted-ascending nodes + group counts.
  Selection finalize(std::vector<cluster::NodeId> nodes, std::int32_t racks,
                     std::int32_t chassis, std::int32_t singles) const;

  /// Top contiguous `count` node ids, ascending (every grouped selection is
  /// such a block by construction of the rack→chassis→singles frontier).
  std::vector<cluster::NodeId> top_block(std::int32_t count) const;

  /// Algorithm 1 for one cap, uncached.
  OfflinePlan compute_plan_impl(double cap_watts) const;
  /// Registers the switch-off reservation for one placed window.
  void register_plan_reservation(OfflinePlan& plan, sim::Time start, sim::Time end);

  rjms::Controller& controller_;
  PowercapConfig config_;

  // Plans never depend on window placement, and selection is independent
  // of live cluster state by design (the paper plans against worst-case
  // draw), so entries stay valid for the planner's lifetime.
  std::unordered_map<std::uint64_t, OfflinePlan> plan_cache_;  ///< key: cap bits
  Stats stats_;
};

}  // namespace ps::core
