// Curie supercomputer characterisation (paper §VI).
//
// Curie (GENCI/TGCC, 2012 upgrade): 5 040 Bullx B510 nodes in 280 chassis
// (18 nodes each) across 56 racks (5 chassis each); 2x 8-core Sandy Bridge
// per node = 80 640 cores. Power values measured via SLURM/IPMI profiling
// (paper Fig 4) and per-level infrastructure from Fig 2.
#pragma once

#include "cluster/cluster.h"
#include "cluster/power_model.h"
#include "cluster/topology.h"

namespace ps::cluster::curie {

// --- Fig 2 / §VI-A topology ------------------------------------------------
inline constexpr std::int32_t kRacks = 56;
inline constexpr std::int32_t kChassisPerRack = 5;
inline constexpr std::int32_t kNodesPerChassis = 18;
inline constexpr std::int32_t kCoresPerNode = 16;
inline constexpr std::int32_t kTotalNodes = kRacks * kChassisPerRack * kNodesPerChassis;
static_assert(kTotalNodes == 5040);

// --- Fig 4 node power table (max observed across the 4 benchmarks) ----------
inline constexpr double kDownWatts = 14.0;
inline constexpr double kIdleWatts = 117.0;
// (GHz, Watts) pairs, ascending.
inline constexpr double kFreqGhz[] = {1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7};
inline constexpr double kFreqWatts[] = {193.0, 213.0, 234.0, 248.0, 269.0, 289.0, 317.0, 358.0};
inline constexpr std::size_t kFreqCount = 8;
inline constexpr double kMaxWatts = 358.0;

// --- Fig 2 infrastructure --------------------------------------------------
inline constexpr double kChassisInfraWatts = 248.0;
inline constexpr double kRackInfraWatts = 900.0;

// Derived Fig 2 values (asserted in tests):
//   node switch-off saving  = 358-14        = 344 W
//   chassis power bonus     = 248 + 18*14   = 500 W
//   chassis accumulated     = 18*344 + 500  = 6 692 W
//   rack power bonus        = 900 + 5*500   = 3 400 W
//   rack accumulated        = 5*6692 + 900  = 34 360 W

/// Scaled-down topology with the same shape (racks x 5 x 18); handy for
/// fast tests. `racks` >= 1.
Topology scaled_topology(std::int32_t racks);

/// The measured DVFS table of Fig 4.
FrequencyTable frequency_table();

/// Power model using the full-scale topology.
PowerModel power_model();

/// Power model over a scaled topology (same node/infra watts).
PowerModel scaled_power_model(std::int32_t racks);

/// Ready-to-use cluster objects.
Cluster make_cluster();
Cluster make_scaled_cluster(std::int32_t racks);

}  // namespace ps::cluster::curie
