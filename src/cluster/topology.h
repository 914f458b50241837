// Hierarchical cluster topology: cluster -> racks -> chassis -> nodes.
//
// The paper's power-bonus model (§III-B) hinges on this hierarchy: a chassis
// or rack whose nodes are all switched off also powers off its shared
// infrastructure (switches, fans, cold door). Node ids are dense and laid
// out contiguously per chassis, so "a contiguous node range" == "physically
// grouped nodes", which the offline algorithm exploits.
#pragma once

#include <cstdint>
#include <vector>

namespace ps::cluster {

using NodeId = std::int32_t;
using ChassisId = std::int32_t;  ///< global chassis index (0..total_chassis)
using RackId = std::int32_t;

class Topology {
 public:
  /// All dimensions must be >= 1. Throws ps::CheckError otherwise.
  Topology(std::int32_t racks, std::int32_t chassis_per_rack,
           std::int32_t nodes_per_chassis, std::int32_t cores_per_node);

  std::int32_t racks() const noexcept { return racks_; }
  std::int32_t chassis_per_rack() const noexcept { return chassis_per_rack_; }
  std::int32_t nodes_per_chassis() const noexcept { return nodes_per_chassis_; }
  std::int32_t cores_per_node() const noexcept { return cores_per_node_; }

  std::int32_t total_chassis() const noexcept { return racks_ * chassis_per_rack_; }
  std::int32_t total_nodes() const noexcept { return total_chassis() * nodes_per_chassis_; }
  std::int64_t total_cores() const noexcept {
    return static_cast<std::int64_t>(total_nodes()) * cores_per_node_;
  }

  /// Mapping helpers. All check their argument ranges.
  ChassisId chassis_of_node(NodeId node) const;
  RackId rack_of_chassis(ChassisId chassis) const;
  NodeId first_node_of_chassis(ChassisId chassis) const;
  ChassisId first_chassis_of_rack(RackId rack) const;

  /// Node ids of one chassis (contiguous ascending).
  std::vector<NodeId> nodes_of_chassis(ChassisId chassis) const;
  /// Node ids of one rack (contiguous ascending).
  std::vector<NodeId> nodes_of_rack(RackId rack) const;

  bool valid_node(NodeId node) const noexcept {
    return node >= 0 && node < total_nodes();
  }

 private:
  std::int32_t racks_;
  std::int32_t chassis_per_rack_;
  std::int32_t nodes_per_chassis_;
  std::int32_t cores_per_node_;
};

}  // namespace ps::cluster
