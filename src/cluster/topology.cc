#include "cluster/topology.h"

#include "util/check.h"

namespace ps::cluster {

Topology::Topology(std::int32_t racks, std::int32_t chassis_per_rack,
                   std::int32_t nodes_per_chassis, std::int32_t cores_per_node)
    : racks_(racks),
      chassis_per_rack_(chassis_per_rack),
      nodes_per_chassis_(nodes_per_chassis),
      cores_per_node_(cores_per_node) {
  PS_CHECK_MSG(racks >= 1, "topology: racks >= 1");
  PS_CHECK_MSG(chassis_per_rack >= 1, "topology: chassis_per_rack >= 1");
  PS_CHECK_MSG(nodes_per_chassis >= 1, "topology: nodes_per_chassis >= 1");
  PS_CHECK_MSG(cores_per_node >= 1, "topology: cores_per_node >= 1");
}

ChassisId Topology::chassis_of_node(NodeId node) const {
  PS_CHECK_MSG(valid_node(node), "topology: node id out of range");
  return node / nodes_per_chassis_;
}

RackId Topology::rack_of_chassis(ChassisId chassis) const {
  PS_CHECK_MSG(chassis >= 0 && chassis < total_chassis(), "topology: chassis out of range");
  return chassis / chassis_per_rack_;
}

NodeId Topology::first_node_of_chassis(ChassisId chassis) const {
  PS_CHECK_MSG(chassis >= 0 && chassis < total_chassis(), "topology: chassis out of range");
  return chassis * nodes_per_chassis_;
}

ChassisId Topology::first_chassis_of_rack(RackId rack) const {
  PS_CHECK_MSG(rack >= 0 && rack < racks_, "topology: rack out of range");
  return rack * chassis_per_rack_;
}

std::vector<NodeId> Topology::nodes_of_chassis(ChassisId chassis) const {
  NodeId first = first_node_of_chassis(chassis);
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(nodes_per_chassis_));
  for (std::int32_t i = 0; i < nodes_per_chassis_; ++i) out.push_back(first + i);
  return out;
}

std::vector<NodeId> Topology::nodes_of_rack(RackId rack) const {
  ChassisId first = first_chassis_of_rack(rack);
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(chassis_per_rack_ * nodes_per_chassis_));
  for (std::int32_t c = 0; c < chassis_per_rack_; ++c) {
    NodeId base = first_node_of_chassis(first + c);
    for (std::int32_t i = 0; i < nodes_per_chassis_; ++i) out.push_back(base + i);
  }
  return out;
}

}  // namespace ps::cluster
