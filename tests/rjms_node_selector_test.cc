#include "rjms/node_selector.h"

#include <gtest/gtest.h>

#include <set>

#include "cluster/curie.h"

namespace ps::rjms {
namespace {

class SelectorTest : public ::testing::Test {
 protected:
  SelectorTest() : cl_(cluster::curie::make_scaled_cluster(2)) {}

  /// The context Controller::plan_start would build for a job spanning
  /// [start, horizon).
  SelectionContext ctx(sim::Time start = 0, sim::Time horizon = 1000) {
    blocked_.ensure(book_, start, horizon, cl_.topology().total_nodes());
    return SelectionContext{cl_, blocked_};
  }

  cluster::Cluster cl_;  // 2 racks = 10 chassis = 180 nodes
  ReservationBook book_;
  BlockedSet blocked_;
};

TEST_F(SelectorTest, AvailabilityRequiresIdleAndUnblocked) {
  EXPECT_TRUE(node_available(ctx(), 0));
  cl_.set_state(0, cluster::NodeState::Busy, 0);
  EXPECT_FALSE(node_available(ctx(), 0));
  cl_.set_state(0, cluster::NodeState::Off);
  EXPECT_FALSE(node_available(ctx(), 0));
  cl_.set_state(0, cluster::NodeState::Idle);

  Reservation r;
  r.kind = ReservationKind::SwitchOff;
  r.start = 500;
  r.end = 2000;
  r.nodes = {0};
  book_.add(std::move(r));
  EXPECT_FALSE(node_available(ctx(0, 1000), 0));  // overlaps window
  EXPECT_TRUE(node_available(ctx(0, 400), 0));    // job done before window
}

TEST_F(SelectorTest, AllSelectorsReturnExactCountOfDistinctIdleNodes) {
  for (auto kind : {SelectorKind::Packing, SelectorKind::Linear, SelectorKind::Spread}) {
    auto selector = make_selector(kind);
    auto nodes = selector->select(ctx(), 25);
    ASSERT_TRUE(nodes.has_value()) << selector->name();
    EXPECT_EQ(nodes->size(), 25u);
    std::set<cluster::NodeId> unique(nodes->begin(), nodes->end());
    EXPECT_EQ(unique.size(), 25u);
    for (cluster::NodeId n : *nodes) {
      EXPECT_EQ(cl_.state(n), cluster::NodeState::Idle);
    }
  }
}

TEST_F(SelectorTest, FailsWhenNotEnoughNodes) {
  auto selector = make_selector(SelectorKind::Packing);
  EXPECT_FALSE(selector->select(ctx(), 181).has_value());
  // Make half the cluster busy; 91 nodes can no longer be found.
  for (cluster::NodeId n = 0; n < 90; ++n) cl_.set_state(n, cluster::NodeState::Busy, 0);
  EXPECT_FALSE(selector->select(ctx(), 91).has_value());
  EXPECT_TRUE(selector->select(ctx(), 90).has_value());
}

TEST_F(SelectorTest, PackingFillsPartiallyUsedChassisFirst) {
  // Occupy 17 of 18 nodes in chassis 3: its last idle node must be chosen
  // before any untouched chassis is broken into.
  auto chassis3 = cl_.topology().nodes_of_chassis(3);
  for (std::size_t i = 0; i + 1 < chassis3.size(); ++i) {
    cl_.set_state(chassis3[i], cluster::NodeState::Busy, 0);
  }
  auto selector = make_selector(SelectorKind::Packing);
  auto nodes = selector->select(ctx(), 1);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(nodes->front(), chassis3.back());
}

TEST_F(SelectorTest, PackingKeepsWholeChassisFreeWhenPossible) {
  // Two chassis partially used (9 idle each); an 18-node request must
  // consume those idle nodes before opening a fresh chassis.
  for (std::int32_t i = 0; i < 9; ++i) {
    cl_.set_state(cl_.topology().first_node_of_chassis(0) + i, cluster::NodeState::Busy, 0);
    cl_.set_state(cl_.topology().first_node_of_chassis(1) + i, cluster::NodeState::Busy, 0);
  }
  auto selector = make_selector(SelectorKind::Packing);
  auto nodes = selector->select(ctx(), 18);
  ASSERT_TRUE(nodes.has_value());
  std::set<cluster::ChassisId> chassis_used;
  for (cluster::NodeId n : *nodes) chassis_used.insert(cl_.topology().chassis_of_node(n));
  EXPECT_EQ(chassis_used, (std::set<cluster::ChassisId>{0, 1}));
}

TEST_F(SelectorTest, LinearPicksAscendingIds) {
  auto selector = make_selector(SelectorKind::Linear);
  cl_.set_state(0, cluster::NodeState::Busy, 0);
  auto nodes = selector->select(ctx(), 3);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(*nodes, (std::vector<cluster::NodeId>{1, 2, 3}));
}

TEST_F(SelectorTest, SpreadScattersAcrossChassis) {
  auto selector = make_selector(SelectorKind::Spread);
  auto nodes = selector->select(ctx(), 10);
  ASSERT_TRUE(nodes.has_value());
  std::set<cluster::ChassisId> chassis_used;
  for (cluster::NodeId n : *nodes) chassis_used.insert(cl_.topology().chassis_of_node(n));
  EXPECT_EQ(chassis_used.size(), 10u);  // one node per chassis
}

TEST_F(SelectorTest, SelectorsSkipFullyOffChassis) {
  for (cluster::NodeId n : cl_.topology().nodes_of_chassis(0)) {
    cl_.set_state(n, cluster::NodeState::Off);
  }
  for (auto kind : {SelectorKind::Packing, SelectorKind::Linear, SelectorKind::Spread}) {
    auto nodes = make_selector(kind)->select(ctx(), 162);
    ASSERT_TRUE(nodes.has_value());
    for (cluster::NodeId n : *nodes) {
      EXPECT_NE(cl_.topology().chassis_of_node(n), 0);
    }
  }
}

TEST_F(SelectorTest, Names) {
  EXPECT_EQ(make_selector(SelectorKind::Packing)->name(), "packing");
  EXPECT_EQ(make_selector(SelectorKind::Linear)->name(), "linear");
  EXPECT_EQ(make_selector(SelectorKind::Spread)->name(), "spread");
}

}  // namespace
}  // namespace ps::rjms
