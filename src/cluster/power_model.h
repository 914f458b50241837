// Static power characterisation of a cluster (paper §III-B, §V, Fig 2/4).
//
// Mirrors the SLURM parameters the paper adds: DownWatts, IdleWatts,
// MaxWatts and CpuFreqXWatts per node, plus per-level infrastructure draw
// (chassis switches/fans, rack cold door) that vanishes when the whole
// level is powered off — the "power bonus".
#pragma once

#include <cstdint>
#include <string>

#include "cluster/frequency.h"
#include "cluster/topology.h"

namespace ps::cluster {

/// Node power states tracked by the RJMS controller.
enum class NodeState : std::uint8_t {
  Off,           ///< switched off; only the BMC draws power (DownWatts)
  Booting,       ///< powering back on (transition)
  Idle,          ///< powered, no job (IdleWatts)
  Busy,          ///< running a job at some DVFS level (CpuFreqXWatts)
  ShuttingDown,  ///< powering off (transition)
};

struct PowerModelSpec {
  double node_down_watts = 0.0;      ///< BMC draw when node is off
  double node_idle_watts = 0.0;      ///< powered, no load
  double node_boot_watts = 0.0;      ///< during boot (default: idle)
  double node_shutdown_watts = 0.0;  ///< during shutdown (default: idle)
  double chassis_infra_watts = 0.0;  ///< switches/fans per chassis
  double rack_infra_watts = 0.0;     ///< cold door/fans per rack
  FrequencyTable frequencies;        ///< busy draw per DVFS level
};

/// Immutable power lookup + the closed-form bonus quantities of Fig 2.
class PowerModel {
 public:
  PowerModel(Topology topology, PowerModelSpec spec);

  const Topology& topology() const noexcept { return topology_; }
  const FrequencyTable& frequencies() const noexcept { return spec_.frequencies; }

  /// Watts drawn by one node in `state` (freq used only for Busy).
  double node_watts(NodeState state, FreqIndex freq) const;

  double down_watts() const noexcept { return spec_.node_down_watts; }
  double idle_watts() const noexcept { return spec_.node_idle_watts; }
  double max_watts() const noexcept { return spec_.frequencies.max().watts; }
  double min_busy_watts() const noexcept { return spec_.frequencies.min().watts; }
  double chassis_infra_watts() const noexcept { return spec_.chassis_infra_watts; }
  double rack_infra_watts() const noexcept { return spec_.rack_infra_watts; }

  // --- Fig 2 closed forms -------------------------------------------------

  /// Saving from switching one busy node off: MaxWatts - DownWatts (344 W).
  double node_switch_off_saving() const noexcept;

  /// Bonus from powering off a whole chassis beyond per-node savings:
  /// chassis infra + nodes_per_chassis * DownWatts (248 + 18*14 = 500 W).
  double chassis_power_bonus() const noexcept;

  /// Bonus from powering off a whole rack beyond chassis savings:
  /// rack infra + chassis_per_rack * chassis bonus (900 + 5*500 = 3400 W).
  double rack_power_bonus() const noexcept;

  /// Accumulated saving when switching a full chassis off, every node busy
  /// before: nodes * node saving + chassis bonus (18*344 + 500 = 6692 W).
  double chassis_accumulated_saving() const noexcept;

  /// Accumulated saving for a full rack (5*6692 + 900 = 34360 W).
  double rack_accumulated_saving() const noexcept;

  // --- Cluster-level aggregates -------------------------------------------

  /// All nodes busy at max frequency, all infrastructure on. The powercap
  /// fraction lambda in the experiments is relative to this value.
  double max_cluster_watts() const noexcept;

  /// All nodes idle, all infrastructure on (the floor a no-shutdown,
  /// no-DVFS system cannot go below).
  double idle_cluster_watts() const noexcept;

  /// Total infrastructure draw with every level powered (chassis + racks).
  double infra_watts_all_on() const noexcept;

  std::string describe() const;

 private:
  Topology topology_;
  PowerModelSpec spec_;
};

}  // namespace ps::cluster
