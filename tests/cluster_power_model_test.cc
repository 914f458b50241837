// Asserts the paper's Fig 2 and Fig 4 values exactly.
#include "cluster/power_model.h"

#include <gtest/gtest.h>

#include "cluster/curie.h"
#include "util/check.h"

namespace ps::cluster {
namespace {

TEST(PowerModel, Fig4NodeStateTable) {
  PowerModel pm = curie::power_model();
  EXPECT_DOUBLE_EQ(pm.node_watts(NodeState::Off, 0), 14.0);
  EXPECT_DOUBLE_EQ(pm.node_watts(NodeState::Idle, 0), 117.0);
  EXPECT_DOUBLE_EQ(pm.node_watts(NodeState::Busy, 0), 193.0);   // 1.2 GHz
  EXPECT_DOUBLE_EQ(pm.node_watts(NodeState::Busy, 4), 269.0);   // 2.0 GHz
  EXPECT_DOUBLE_EQ(pm.node_watts(NodeState::Busy, 7), 358.0);   // 2.7 GHz
  // Transitions default to the idle draw.
  EXPECT_DOUBLE_EQ(pm.node_watts(NodeState::Booting, 0), 117.0);
  EXPECT_DOUBLE_EQ(pm.node_watts(NodeState::ShuttingDown, 0), 117.0);
}

TEST(PowerModel, Fig2BonusValues) {
  PowerModel pm = curie::power_model();
  // node switch-off saving = 358 - 14 = 344 W
  EXPECT_DOUBLE_EQ(pm.node_switch_off_saving(), 344.0);
  // chassis bonus = 248 + 18*14 = 500 W
  EXPECT_DOUBLE_EQ(pm.chassis_power_bonus(), 500.0);
  // chassis accumulated = 344*18 + 500 = 6 692 W
  EXPECT_DOUBLE_EQ(pm.chassis_accumulated_saving(), 6692.0);
  // rack bonus = 900 + 500*5 = 3 400 W
  EXPECT_DOUBLE_EQ(pm.rack_power_bonus(), 3400.0);
  // rack accumulated = 6692*5 + 900 = 34 360 W
  EXPECT_DOUBLE_EQ(pm.rack_accumulated_saving(), 34360.0);
}

TEST(PowerModel, PaperExampleTwentyNodesVsChassis) {
  // Paper §VI-A: a 6 600 W reduction needs 20 scattered nodes
  // (20*344 = 6 880 W) but a single 18-node chassis saves 6 692 W.
  PowerModel pm = curie::power_model();
  EXPECT_GE(20 * pm.node_switch_off_saving(), 6600.0);
  EXPECT_LT(19 * pm.node_switch_off_saving(), 6600.0);
  EXPECT_GE(pm.chassis_accumulated_saving(), 6600.0);
}

TEST(PowerModel, ClusterAggregates) {
  PowerModel pm = curie::power_model();
  double infra = 280 * 248.0 + 56 * 900.0;
  EXPECT_DOUBLE_EQ(pm.infra_watts_all_on(), infra);
  EXPECT_DOUBLE_EQ(pm.max_cluster_watts(), 5040 * 358.0 + infra);
  EXPECT_DOUBLE_EQ(pm.idle_cluster_watts(), 5040 * 117.0 + infra);
}

TEST(PowerModel, ScaledClusterKeepsShape) {
  PowerModel pm = curie::scaled_power_model(2);
  EXPECT_EQ(pm.topology().total_nodes(), 180);
  EXPECT_DOUBLE_EQ(pm.chassis_power_bonus(), 500.0);
  EXPECT_DOUBLE_EQ(pm.rack_power_bonus(), 3400.0);
  EXPECT_DOUBLE_EQ(pm.max_cluster_watts(), 180 * 358.0 + 10 * 248.0 + 2 * 900.0);
}

TEST(PowerModel, ValidatesSpec) {
  Topology topo = curie::scaled_topology(1);
  PowerModelSpec bad{
      .node_down_watts = 150.0,   // above idle: invalid
      .node_idle_watts = 117.0,
      .node_boot_watts = 0.0,
      .node_shutdown_watts = 0.0,
      .chassis_infra_watts = 248.0,
      .rack_infra_watts = 900.0,
      .frequencies = curie::frequency_table(),
  };
  EXPECT_THROW(PowerModel(topo, std::move(bad)), CheckError);
}

TEST(PowerModel, DescribeMentionsKeyNumbers) {
  std::string text = curie::power_model().describe();
  EXPECT_NE(text.find("5040 nodes"), std::string::npos);
  EXPECT_NE(text.find("6692"), std::string::npos);
  EXPECT_NE(text.find("34360"), std::string::npos);
}

}  // namespace
}  // namespace ps::cluster
