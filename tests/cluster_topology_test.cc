#include "cluster/topology.h"

#include <gtest/gtest.h>

#include "cluster/curie.h"
#include "util/check.h"

namespace ps::cluster {
namespace {

TEST(Topology, CurieDimensions) {
  Topology topo = curie::scaled_topology(curie::kRacks);
  EXPECT_EQ(topo.racks(), 56);
  EXPECT_EQ(topo.chassis_per_rack(), 5);
  EXPECT_EQ(topo.nodes_per_chassis(), 18);
  EXPECT_EQ(topo.cores_per_node(), 16);
  EXPECT_EQ(topo.total_chassis(), 280);
  EXPECT_EQ(topo.total_nodes(), 5040);
  EXPECT_EQ(topo.total_cores(), 80640);
}

TEST(Topology, NodeToChassisAndRackMapping) {
  Topology topo = curie::scaled_topology(curie::kRacks);
  EXPECT_EQ(topo.chassis_of_node(0), 0);
  EXPECT_EQ(topo.chassis_of_node(17), 0);
  EXPECT_EQ(topo.chassis_of_node(18), 1);
  EXPECT_EQ(topo.rack_of_chassis(topo.chassis_of_node(89)), 0);  // 5 chassis * 18 nodes - 1
  EXPECT_EQ(topo.rack_of_chassis(topo.chassis_of_node(90)), 1);
  EXPECT_EQ(topo.rack_of_chassis(topo.chassis_of_node(5039)), 55);
  EXPECT_EQ(topo.rack_of_chassis(4), 0);
  EXPECT_EQ(topo.rack_of_chassis(5), 1);
}

TEST(Topology, FirstOfGroupInverses) {
  Topology topo = curie::scaled_topology(curie::kRacks);
  for (ChassisId c : {0, 1, 7, 279}) {
    NodeId first = topo.first_node_of_chassis(c);
    EXPECT_EQ(topo.chassis_of_node(first), c);
    EXPECT_EQ(first % topo.nodes_per_chassis(), 0);
  }
  for (RackId r : {0, 1, 55}) {
    ChassisId first = topo.first_chassis_of_rack(r);
    EXPECT_EQ(topo.rack_of_chassis(first), r);
  }
}

TEST(Topology, NodesOfChassisContiguousAscending) {
  Topology topo = curie::scaled_topology(2);
  auto nodes = topo.nodes_of_chassis(3);
  ASSERT_EQ(nodes.size(), 18u);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i], nodes[0] + static_cast<NodeId>(i));
    EXPECT_EQ(topo.chassis_of_node(nodes[i]), 3);
  }
}

TEST(Topology, NodesOfRackCoversAllChassis) {
  Topology topo = curie::scaled_topology(2);
  auto nodes = topo.nodes_of_rack(1);
  EXPECT_EQ(nodes.size(), 90u);
  for (NodeId n : nodes) EXPECT_EQ(topo.rack_of_chassis(topo.chassis_of_node(n)), 1);
}

TEST(Topology, RangeChecks) {
  Topology topo = curie::scaled_topology(1);
  EXPECT_TRUE(topo.valid_node(0));
  EXPECT_TRUE(topo.valid_node(89));
  EXPECT_FALSE(topo.valid_node(90));
  EXPECT_FALSE(topo.valid_node(-1));
  EXPECT_THROW((void)topo.chassis_of_node(90), CheckError);
  EXPECT_THROW((void)topo.nodes_of_chassis(5), CheckError);
  EXPECT_THROW((void)topo.nodes_of_rack(1), CheckError);
}

TEST(Topology, InvalidDimensionsRejected) {
  EXPECT_THROW(Topology(0, 1, 1, 1), CheckError);
  EXPECT_THROW(Topology(1, 0, 1, 1), CheckError);
  EXPECT_THROW(Topology(1, 1, 0, 1), CheckError);
  EXPECT_THROW(Topology(1, 1, 1, 0), CheckError);
}

}  // namespace
}  // namespace ps::cluster
