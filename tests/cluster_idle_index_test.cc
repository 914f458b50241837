// Incremental idle-node index: per-chassis idle counts and the "chassis by
// idle count" bitset buckets must match a brute-force recount after arbitrary
// set_state transition sequences (the audit_watts cross-check pattern,
// applied to the scheduler-facing index).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/curie.h"
#include "util/check.h"
#include "util/rng.h"

namespace ps::cluster {
namespace {

Cluster mini() { return curie::make_scaled_cluster(2); }  // 180 nodes

std::vector<std::int32_t> brute_force_idle(const Cluster& cl) {
  const Topology& topo = cl.topology();
  std::vector<std::int32_t> idle(static_cast<std::size_t>(topo.total_chassis()), 0);
  for (NodeId n = 0; n < topo.total_nodes(); ++n) {
    if (cl.state(n) == NodeState::Idle) {
      ++idle[static_cast<std::size_t>(topo.chassis_of_node(n))];
    }
  }
  return idle;
}

/// One idle bucket, as the visitor yields it.
std::vector<ChassisId> bucket(const Cluster& cl, std::int32_t idle) {
  std::vector<ChassisId> out;
  cl.visit_idle_bucket(idle, [&out](ChassisId c) {
    out.push_back(c);
    return false;
  });
  return out;
}

/// The packing order the index exists to serve: (idle asc, id asc) over
/// chassis with at least one idle node.
std::vector<ChassisId> index_order(const Cluster& cl) {
  std::vector<ChassisId> order;
  for (std::int32_t idle = 1; idle <= cl.topology().nodes_per_chassis(); ++idle) {
    std::vector<ChassisId> b = bucket(cl, idle);
    order.insert(order.end(), b.begin(), b.end());
  }
  return order;
}

std::vector<ChassisId> brute_force_order(const Cluster& cl) {
  std::vector<std::int32_t> idle = brute_force_idle(cl);
  std::vector<ChassisId> order;
  for (ChassisId c = 0; c < cl.topology().total_chassis(); ++c) {
    if (idle[static_cast<std::size_t>(c)] > 0) order.push_back(c);
  }
  std::stable_sort(order.begin(), order.end(), [&idle](ChassisId a, ChassisId b) {
    return idle[static_cast<std::size_t>(a)] < idle[static_cast<std::size_t>(b)];
  });
  return order;
}

TEST(ClusterIdleIndex, InitialStateAllChassisFullyIdle) {
  Cluster cl = mini();
  std::int32_t npc = cl.topology().nodes_per_chassis();
  for (ChassisId c = 0; c < cl.topology().total_chassis(); ++c) {
    EXPECT_EQ(cl.idle_nodes(c), npc);
  }
  EXPECT_EQ(bucket(cl, npc).size(), static_cast<std::size_t>(cl.topology().total_chassis()));
  for (std::int32_t k = 0; k < npc; ++k) {
    EXPECT_TRUE(bucket(cl, k).empty());
  }
  EXPECT_TRUE(cl.audit_idle_index());
}

TEST(ClusterIdleIndex, TracksSingleTransitions) {
  Cluster cl = mini();
  std::int32_t npc = cl.topology().nodes_per_chassis();
  cl.set_state(0, NodeState::Busy, 3);
  EXPECT_EQ(cl.idle_nodes(0), npc - 1);
  EXPECT_EQ(bucket(cl, npc - 1), std::vector<ChassisId>{0});
  // Busy -> Busy (rescale) does not move the chassis.
  cl.set_state(0, NodeState::Busy, 5);
  EXPECT_EQ(cl.idle_nodes(0), npc - 1);
  // Off and transition states count as not idle.
  cl.set_state(1, NodeState::Off);
  cl.set_state(2, NodeState::Booting);
  cl.set_state(3, NodeState::ShuttingDown);
  EXPECT_EQ(cl.idle_nodes(0), npc - 4);
  cl.set_state(0, NodeState::Idle);
  EXPECT_EQ(cl.idle_nodes(0), npc - 3);
  EXPECT_TRUE(cl.audit_idle_index());
}

TEST(ClusterIdleIndex, BucketsKeepAscendingChassisIds) {
  Cluster cl = mini();
  // Make chassis 4 and 1 both have exactly one busy node; their shared
  // bucket must list them ascending.
  cl.set_state(cl.topology().first_node_of_chassis(4), NodeState::Busy, 0);
  cl.set_state(cl.topology().first_node_of_chassis(1), NodeState::Busy, 0);
  std::int32_t npc = cl.topology().nodes_per_chassis();
  EXPECT_EQ(bucket(cl, npc - 1), (std::vector<ChassisId>{1, 4}));
  EXPECT_TRUE(cl.audit_idle_index());
}

TEST(ClusterIdleIndex, VisitorStopsAtFirstTrue) {
  Cluster cl = mini();
  std::int32_t npc = cl.topology().nodes_per_chassis();
  std::vector<ChassisId> seen;
  EXPECT_TRUE(cl.visit_idle_bucket(npc, [&seen](ChassisId c) {
    seen.push_back(c);
    return c == 2;
  }));
  EXPECT_EQ(seen, (std::vector<ChassisId>{0, 1, 2}));
  EXPECT_FALSE(cl.visit_idle_bucket(0, [](ChassisId) { return true; }));
}

TEST(ClusterIdleIndex, InvalidArgumentsRejected) {
  Cluster cl = mini();
  EXPECT_THROW((void)cl.idle_nodes(-1), CheckError);
  EXPECT_THROW((void)cl.idle_nodes(cl.topology().total_chassis()), CheckError);
  auto none = [](ChassisId) { return false; };
  EXPECT_THROW((void)cl.visit_idle_bucket(-1, none), CheckError);
  EXPECT_THROW((void)cl.visit_idle_bucket(cl.topology().nodes_per_chassis() + 1, none),
               CheckError);
}

// Property: after any random transition sequence the incremental index
// matches a brute-force recount — counts, bucket membership, and the
// selector-facing (idle asc, id asc) ordering.
TEST(ClusterIdleIndex, IncrementalMatchesBruteForceUnderRandomChurn) {
  Cluster cl = mini();
  util::Rng rng(20150525);
  const NodeState states[] = {NodeState::Off, NodeState::Booting, NodeState::Idle,
                              NodeState::Busy, NodeState::ShuttingDown};
  for (int step = 0; step < 20000; ++step) {
    auto node = static_cast<NodeId>(rng.uniform_int(0, cl.topology().total_nodes() - 1));
    NodeState state = states[rng.uniform_int(0, 4)];
    auto freq = static_cast<FreqIndex>(
        rng.uniform_int(0, static_cast<std::int64_t>(cl.frequencies().size()) - 1));
    cl.set_state(node, state, freq);
    if (step % 500 == 0) {
      std::vector<std::int32_t> expected = brute_force_idle(cl);
      for (ChassisId c = 0; c < cl.topology().total_chassis(); ++c) {
        ASSERT_EQ(cl.idle_nodes(c), expected[static_cast<std::size_t>(c)])
            << "chassis " << c << " at step " << step;
      }
      ASSERT_TRUE(cl.audit_idle_index()) << "at step " << step;
      ASSERT_EQ(index_order(cl), brute_force_order(cl)) << "at step " << step;
    }
  }
  EXPECT_TRUE(cl.audit_idle_index());
  EXPECT_EQ(index_order(cl), brute_force_order(cl));
}

}  // namespace
}  // namespace ps::cluster
