// Stateful cluster: incremental power accounting vs O(N) audit, hierarchy
// gating (the power bonus), and aggregate counters.
#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include "cluster/curie.h"
#include "util/check.h"
#include "util/rng.h"

namespace ps::cluster {
namespace {

Cluster mini() { return curie::make_scaled_cluster(2); }  // 180 nodes

TEST(Cluster, InitialStateAllIdle) {
  Cluster cl = mini();
  EXPECT_EQ(cl.count(NodeState::Idle), 180);
  EXPECT_EQ(cl.count(NodeState::Busy), 0);
  double expected = 180 * 117.0 + 10 * 248.0 + 2 * 900.0;
  EXPECT_DOUBLE_EQ(cl.watts(), expected);
  EXPECT_DOUBLE_EQ(cl.audit_watts(), expected);
}

TEST(Cluster, BusyNodeRaisesPowerByFreqDelta) {
  Cluster cl = mini();
  double before = cl.watts();
  cl.set_state(0, NodeState::Busy, 7);  // 2.7 GHz
  EXPECT_DOUBLE_EQ(cl.watts(), before + (358.0 - 117.0));
  cl.set_state(0, NodeState::Busy, 0);  // re-scale to 1.2 GHz
  EXPECT_DOUBLE_EQ(cl.watts(), before + (193.0 - 117.0));
  cl.set_state(0, NodeState::Idle);
  EXPECT_DOUBLE_EQ(cl.watts(), before);
}

TEST(Cluster, SingleNodeOffKeepsBmcDraw) {
  Cluster cl = mini();
  double before = cl.watts();
  cl.set_state(0, NodeState::Off);
  EXPECT_DOUBLE_EQ(cl.watts(), before - (117.0 - 14.0));
  EXPECT_EQ(cl.count(NodeState::Off), 1);
  EXPECT_DOUBLE_EQ(cl.watts(), cl.audit_watts());
}

TEST(Cluster, WholeChassisOffHarvestsBonus) {
  Cluster cl = mini();
  double before = cl.watts();
  for (NodeId n = 1; n < 18; ++n) cl.set_state(n, NodeState::Off);
  double one_on = cl.watts();
  cl.set_state(0, NodeState::Off);
  // The last node takes its idle draw, the chassis infra and every BMC of
  // the chassis with it.
  EXPECT_DOUBLE_EQ(cl.watts(), one_on - (117.0 + 248.0 + 17 * 14.0));
  // Saving vs idle: 18 idle nodes + chassis infra = 18*117 + 248.
  EXPECT_DOUBLE_EQ(cl.watts(), before - (18 * 117.0 + 248.0));
  EXPECT_EQ(cl.count(NodeState::Off), 18);
  EXPECT_DOUBLE_EQ(cl.watts(), cl.audit_watts());
}

TEST(Cluster, WholeRackOffHarvestsRackBonus) {
  Cluster cl = mini();
  double before = cl.watts();
  for (NodeId n : cl.topology().nodes_of_rack(1)) cl.set_state(n, NodeState::Off);
  double expected_saving = 90 * 117.0 + 5 * 248.0 + 900.0;
  EXPECT_DOUBLE_EQ(cl.watts(), before - expected_saving);
  EXPECT_EQ(cl.count(NodeState::Off), 90);
  EXPECT_DOUBLE_EQ(cl.watts(), cl.audit_watts());
}

TEST(Cluster, ChassisComesBackWhenAnyNodeBoots) {
  Cluster cl = mini();
  for (NodeId n : cl.topology().nodes_of_chassis(0)) cl.set_state(n, NodeState::Off);
  double all_off = cl.watts();
  cl.set_state(0, NodeState::Idle);
  // Chassis infra returns plus one idle node plus 17 BMCs.
  EXPECT_DOUBLE_EQ(cl.watts(), all_off + 248.0 + 117.0 + 17 * 14.0);
  EXPECT_DOUBLE_EQ(cl.watts(), cl.audit_watts());
}

TEST(Cluster, BusyCountByFreqFollowsRescales) {
  Cluster cl = mini();
  cl.set_state(5, NodeState::Busy, 3);
  cl.set_state(6, NodeState::Busy, 3);
  EXPECT_EQ(cl.busy_count_by_freq()[3], 2);
  cl.set_state(5, NodeState::Busy, 0);
  EXPECT_EQ(cl.busy_count_by_freq()[0], 1);
  EXPECT_EQ(cl.busy_count_by_freq()[3], 1);
  cl.set_state(6, NodeState::Idle);
  EXPECT_EQ(cl.busy_count_by_freq()[3], 0);
  EXPECT_EQ(cl.count(NodeState::Busy), 1);
}

TEST(Cluster, StateCountsStayConsistent) {
  Cluster cl = mini();
  cl.set_state(0, NodeState::Busy, 7);
  cl.set_state(1, NodeState::Busy, 7);
  cl.set_state(2, NodeState::Off);
  cl.set_state(3, NodeState::Booting);
  cl.set_state(4, NodeState::ShuttingDown);
  EXPECT_EQ(cl.count(NodeState::Busy), 2);
  EXPECT_EQ(cl.count(NodeState::Off), 1);
  EXPECT_EQ(cl.count(NodeState::Booting), 1);
  EXPECT_EQ(cl.count(NodeState::ShuttingDown), 1);
  EXPECT_EQ(cl.count(NodeState::Idle), 175);
  EXPECT_EQ(cl.powered_nodes(), 179);
}

TEST(Cluster, MaxPowerMatchesModel) {
  Cluster cl = mini();
  for (NodeId n = 0; n < cl.topology().total_nodes(); ++n) {
    cl.set_state(n, NodeState::Busy, cl.frequencies().max_index());
  }
  EXPECT_DOUBLE_EQ(cl.watts(), cl.power_model().max_cluster_watts());
  EXPECT_DOUBLE_EQ(cl.watts(), cl.audit_watts());
}

TEST(Cluster, AllOffIsZeroPower) {
  Cluster cl = mini();
  for (NodeId n = 0; n < cl.topology().total_nodes(); ++n) {
    cl.set_state(n, NodeState::Off);
  }
  EXPECT_DOUBLE_EQ(cl.watts(), 0.0);
  EXPECT_DOUBLE_EQ(cl.audit_watts(), 0.0);
}

TEST(Cluster, InvalidArgumentsRejected) {
  Cluster cl = mini();
  EXPECT_THROW(cl.set_state(-1, NodeState::Idle), CheckError);
  EXPECT_THROW(cl.set_state(9999, NodeState::Idle), CheckError);
  EXPECT_THROW(cl.set_state(0, NodeState::Busy, 99), CheckError);
  EXPECT_THROW((void)cl.state(9999), CheckError);
}

// Property: after any random transition sequence, the incremental power
// equals the audit recomputation bit-for-bit (integer milliwatt tracking).
TEST(Cluster, IncrementalMatchesAuditUnderRandomChurn) {
  Cluster cl = mini();
  util::Rng rng(2024);
  const NodeState states[] = {NodeState::Off, NodeState::Booting, NodeState::Idle,
                              NodeState::Busy, NodeState::ShuttingDown};
  for (int step = 0; step < 20000; ++step) {
    auto node = static_cast<NodeId>(rng.uniform_int(0, cl.topology().total_nodes() - 1));
    NodeState state = states[rng.uniform_int(0, 4)];
    auto freq = static_cast<FreqIndex>(
        rng.uniform_int(0, static_cast<std::int64_t>(cl.frequencies().size()) - 1));
    cl.set_state(node, state, freq);
    if (step % 1000 == 0) {
      ASSERT_DOUBLE_EQ(cl.watts(), cl.audit_watts()) << "at step " << step;
    }
  }
  EXPECT_DOUBLE_EQ(cl.watts(), cl.audit_watts());
}

}  // namespace
}  // namespace ps::cluster
