#include "cluster/curie.h"

namespace ps::cluster::curie {

Topology scaled_topology(std::int32_t racks) {
  return Topology(racks, kChassisPerRack, kNodesPerChassis, kCoresPerNode);
}

FrequencyTable frequency_table() {
  std::vector<FrequencyLevel> levels;
  levels.reserve(kFreqCount);
  for (std::size_t i = 0; i < kFreqCount; ++i) {
    levels.push_back(FrequencyLevel{kFreqGhz[i], kFreqWatts[i]});
  }
  return FrequencyTable(std::move(levels));
}

PowerModel power_model() { return scaled_power_model(kRacks); }

PowerModel scaled_power_model(std::int32_t racks) {
  PowerModelSpec spec{
      .node_down_watts = kDownWatts,
      .node_idle_watts = kIdleWatts,
      .node_boot_watts = 0.0,      // defaults to idle draw during transition
      .node_shutdown_watts = 0.0,  // defaults to idle draw during transition
      .chassis_infra_watts = kChassisInfraWatts,
      .rack_infra_watts = kRackInfraWatts,
      .frequencies = frequency_table(),
  };
  return PowerModel(scaled_topology(racks), std::move(spec));
}

Cluster make_cluster() { return Cluster(power_model()); }

Cluster make_scaled_cluster(std::int32_t racks) {
  return Cluster(scaled_power_model(racks));
}

}  // namespace ps::cluster::curie
