// Differential test of node selection: every selector, reading the
// cluster's idle words and a reused BlockedSet, must pick exactly the node
// list of the per-node reference (tests/selection_reference.h) over seeded
// random clusters in all five node states and random Maintenance and
// SwitchOff books, strict and permissive. Topologies cover Curie scale, a
// 2-rack slice, chassis of 63, 64 and 65 nodes, and one 100-node chassis,
// so chassis masks start mid-word, fill a word and cross words.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/curie.h"
#include "selection_reference.h"
#include "util/rng.h"

namespace ps::rjms {
namespace {

struct Shape {
  std::string name;
  std::int32_t racks;  ///< 0 = full Curie
  std::int32_t chassis_per_rack;
  std::int32_t nodes_per_chassis;
  int trials;
};

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

cluster::Cluster make(const Shape& shape) {
  if (shape.racks == 0) return cluster::curie::make_cluster();
  if (shape.chassis_per_rack == 0) return cluster::curie::make_scaled_cluster(shape.racks);
  cluster::PowerModelSpec spec{
      .node_down_watts = cluster::curie::kDownWatts,
      .node_idle_watts = cluster::curie::kIdleWatts,
      .frequencies = cluster::curie::frequency_table(),
  };
  return cluster::Cluster(cluster::PowerModel(
      cluster::Topology(shape.racks, shape.chassis_per_rack, shape.nodes_per_chassis,
                        cluster::curie::kCoresPerNode),
      spec));
}

/// Puts each chassis at its own load, so the packing order sees every
/// idle count, with non-Idle nodes spread over the four other states.
void scramble(cluster::Cluster& cl, util::Rng& rng) {
  const cluster::Topology& topo = cl.topology();
  const auto top_freq = static_cast<std::int64_t>(cl.frequencies().max_index());
  for (cluster::ChassisId c = 0; c < topo.total_chassis(); ++c) {
    const double idle_share = rng.chance(0.2) ? (rng.chance(0.5) ? 0.0 : 1.0) : rng.uniform(0, 1);
    for (std::int32_t i = 0; i < topo.nodes_per_chassis(); ++i) {
      cluster::NodeId n = c * topo.nodes_per_chassis() + i;
      if (rng.chance(idle_share)) {
        cl.set_state(n, cluster::NodeState::Idle);
        continue;
      }
      constexpr cluster::NodeState kOthers[] = {
          cluster::NodeState::Busy, cluster::NodeState::Off, cluster::NodeState::Booting,
          cluster::NodeState::ShuttingDown};
      const cluster::NodeState state = kOthers[rng.uniform_int(0, 3)];
      const auto freq = static_cast<cluster::FreqIndex>(rng.uniform_int(0, top_freq));
      cl.set_state(n, state, freq);  // freq is ignored unless Busy
    }
  }
}

/// A node reservation over whole chassis, a contiguous run or scattered
/// nodes, in [0, 1000).
Reservation random_reservation(const cluster::Topology& topo, util::Rng& rng) {
  Reservation r;
  r.kind = rng.chance(0.5) ? ReservationKind::SwitchOff : ReservationKind::Maintenance;
  r.permissive = r.kind == ReservationKind::SwitchOff && rng.chance(0.5);
  r.start = rng.uniform_int(0, 900);
  r.end = r.start + rng.uniform_int(1, 400);
  const std::int32_t total = topo.total_nodes();
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      auto c = static_cast<cluster::ChassisId>(rng.uniform_int(0, topo.total_chassis() - 1));
      auto span = static_cast<std::int32_t>(rng.uniform_int(1, 3));
      for (cluster::NodeId n = c * topo.nodes_per_chassis();
           n < std::min(total, (c + span) * topo.nodes_per_chassis()); ++n) {
        r.nodes.push_back(n);
      }
      break;
    }
    case 1: {
      auto first = static_cast<cluster::NodeId>(rng.uniform_int(0, total - 1));
      auto len = static_cast<std::int32_t>(rng.uniform_int(1, 150));
      for (cluster::NodeId n = first; n < std::min(total, first + len); ++n) r.nodes.push_back(n);
      break;
    }
    default: {
      auto width = rng.uniform_int(1, 60);
      for (std::int64_t i = 0; i < width; ++i) {
        r.nodes.push_back(static_cast<cluster::NodeId>(rng.uniform_int(0, total - 1)));
      }
      std::sort(r.nodes.begin(), r.nodes.end());
      r.nodes.erase(std::unique(r.nodes.begin(), r.nodes.end()), r.nodes.end());
    }
  }
  return r;
}

class SelectionDifferential : public ::testing::TestWithParam<Shape> {};

TEST_P(SelectionDifferential, SelectorsMatchPerNodeReference) {
  const Shape& shape = GetParam();
  cluster::Cluster cl = make(shape);
  const std::int32_t total = cl.topology().total_nodes();
  util::Rng rng(static_cast<std::uint64_t>(2026 + shape.nodes_per_chassis + shape.racks));
  std::vector<cluster::NodeId> picked;
  std::size_t compared = 0;
  for (int trial = 0; trial < shape.trials; ++trial) {
    scramble(cl, rng);
    ASSERT_TRUE(cl.audit_idle_index());
    ReservationBook book;
    BlockedSet blocked;  // one per book, reused across its spans as plan_start does
    for (std::int64_t r = rng.uniform_int(0, 8); r > 0; --r) {
      book.add(random_reservation(cl.topology(), rng));
    }
    for (int probe = 0; probe < 4; ++probe) {
      sim::Time start = rng.uniform_int(0, 1000);
      sim::Time horizon = start + rng.uniform_int(1, 500);
      blocked.ensure(book, start, horizon, total);
      std::vector<bool> available = reference_available(cl, book, start, horizon);
      const auto free = static_cast<std::int32_t>(
          std::count(available.begin(), available.end(), true));
      for (SelectorKind kind : {SelectorKind::Packing, SelectorKind::Linear,
                                SelectorKind::Spread}) {
        auto selector = make_selector(kind);
        for (std::int32_t count :
             {1, std::max(1, free / 3), std::max(1, free), free + 1,
              static_cast<std::int32_t>(rng.uniform_int(1, total))}) {
          auto expected = reference_select(kind, cl, available, count);
          const bool ok = selector->select(SelectionContext{cl, blocked}, count, picked);
          ASSERT_EQ(ok, expected.has_value())
              << shape.name << " " << selector->name() << " trial " << trial << " count "
              << count;
          if (ok) {
            ASSERT_EQ(picked, *expected)
                << shape.name << " " << selector->name() << " trial " << trial << " count "
                << count << " span [" << start << ", " << horizon << ")";
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelectionDifferential,
    ::testing::Values(Shape{"curie", 0, 0, 18, 6}, Shape{"two_racks", 2, 0, 18, 40},
                      Shape{"npc63", 2, 3, 63, 25}, Shape{"npc64", 2, 3, 64, 25},
                      Shape{"npc65", 2, 3, 65, 25}, Shape{"one_chassis_100", 1, 1, 100, 40}),
    [](const ::testing::TestParamInfo<Shape>& info) { return info.param.name; });

}  // namespace
}  // namespace ps::rjms
