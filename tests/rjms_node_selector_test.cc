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

  /// select() of a fresh `kind` selector into picked_.
  bool pick(SelectorKind kind, std::int32_t count, sim::Time start = 0,
            sim::Time horizon = 1000) {
    return make_selector(kind)->select(ctx(start, horizon), count, picked_);
  }

  cluster::Cluster cl_;  // 2 racks = 10 chassis = 180 nodes
  ReservationBook book_;
  BlockedSet blocked_;
  std::vector<cluster::NodeId> picked_;
};

TEST_F(SelectorTest, AvailabilityRequiresIdleAndUnblocked) {
  // Node 0 is available iff a linear pick of one node takes it.
  auto available0 = [this](sim::Time start, sim::Time horizon) {
    return pick(SelectorKind::Linear, 1, start, horizon) && picked_.front() == 0;
  };
  EXPECT_TRUE(available0(0, 1000));
  cl_.set_state(0, cluster::NodeState::Busy, 0);
  EXPECT_FALSE(available0(0, 1000));
  cl_.set_state(0, cluster::NodeState::Off);
  EXPECT_FALSE(available0(0, 1000));
  cl_.set_state(0, cluster::NodeState::Idle);

  Reservation r;
  r.kind = ReservationKind::SwitchOff;
  r.start = 500;
  r.end = 2000;
  r.nodes = {0};
  book_.add(std::move(r));
  EXPECT_FALSE(available0(0, 1000));  // overlaps window
  EXPECT_TRUE(available0(0, 400));    // job done before window
}

TEST_F(SelectorTest, AllSelectorsReturnExactCountOfDistinctIdleNodes) {
  for (auto kind : {SelectorKind::Packing, SelectorKind::Linear, SelectorKind::Spread}) {
    ASSERT_TRUE(pick(kind, 25)) << make_selector(kind)->name();
    EXPECT_EQ(picked_.size(), 25u);
    std::set<cluster::NodeId> unique(picked_.begin(), picked_.end());
    EXPECT_EQ(unique.size(), 25u);
    for (cluster::NodeId n : picked_) {
      EXPECT_EQ(cl_.state(n), cluster::NodeState::Idle);
    }
  }
}

TEST_F(SelectorTest, FailsWhenNotEnoughNodes) {
  EXPECT_FALSE(pick(SelectorKind::Packing, 181));
  // Make half the cluster busy; 91 nodes can no longer be found.
  for (cluster::NodeId n = 0; n < 90; ++n) cl_.set_state(n, cluster::NodeState::Busy, 0);
  EXPECT_FALSE(pick(SelectorKind::Packing, 91));
  EXPECT_TRUE(pick(SelectorKind::Packing, 90));
}

TEST_F(SelectorTest, PackingFillsPartiallyUsedChassisFirst) {
  // Occupy 17 of 18 nodes in chassis 3: its last idle node must be chosen
  // before any untouched chassis is broken into.
  auto chassis3 = cl_.topology().nodes_of_chassis(3);
  for (std::size_t i = 0; i + 1 < chassis3.size(); ++i) {
    cl_.set_state(chassis3[i], cluster::NodeState::Busy, 0);
  }
  ASSERT_TRUE(pick(SelectorKind::Packing, 1));
  EXPECT_EQ(picked_.front(), chassis3.back());
}

TEST_F(SelectorTest, PackingKeepsWholeChassisFreeWhenPossible) {
  // Two chassis partially used (9 idle each); an 18-node request must
  // consume those idle nodes before opening a fresh chassis.
  for (std::int32_t i = 0; i < 9; ++i) {
    cl_.set_state(cl_.topology().first_node_of_chassis(0) + i, cluster::NodeState::Busy, 0);
    cl_.set_state(cl_.topology().first_node_of_chassis(1) + i, cluster::NodeState::Busy, 0);
  }
  ASSERT_TRUE(pick(SelectorKind::Packing, 18));
  std::set<cluster::ChassisId> chassis_used;
  for (cluster::NodeId n : picked_) chassis_used.insert(cl_.topology().chassis_of_node(n));
  EXPECT_EQ(chassis_used, (std::set<cluster::ChassisId>{0, 1}));
}

TEST_F(SelectorTest, LinearPicksAscendingIds) {
  cl_.set_state(0, cluster::NodeState::Busy, 0);
  ASSERT_TRUE(pick(SelectorKind::Linear, 3));
  EXPECT_EQ(picked_, (std::vector<cluster::NodeId>{1, 2, 3}));
}

TEST_F(SelectorTest, SpreadScattersAcrossChassis) {
  ASSERT_TRUE(pick(SelectorKind::Spread, 10));
  std::set<cluster::ChassisId> chassis_used;
  for (cluster::NodeId n : picked_) chassis_used.insert(cl_.topology().chassis_of_node(n));
  EXPECT_EQ(chassis_used.size(), 10u);  // one node per chassis
}

TEST_F(SelectorTest, SelectorsSkipFullyOffChassis) {
  for (cluster::NodeId n : cl_.topology().nodes_of_chassis(0)) {
    cl_.set_state(n, cluster::NodeState::Off);
  }
  for (auto kind : {SelectorKind::Packing, SelectorKind::Linear, SelectorKind::Spread}) {
    ASSERT_TRUE(pick(kind, 162));
    for (cluster::NodeId n : picked_) {
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
