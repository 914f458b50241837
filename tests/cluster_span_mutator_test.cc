// The node-list mutator set_state(span, ...) settles gating, rack and total
// sums and the idle bucket once per same-chassis run. After every call the
// incremental state must match brute-force recounts: audit_watts(),
// audit_idle_index(), per-state counts, busy nodes per frequency, and the
// idle visitor's order against a sort of (idle_nodes(c), c). A twin cluster
// fed the same transitions one node at a time must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/curie.h"
#include "util/check.h"
#include "util/rng.h"

namespace ps::cluster {
namespace {

constexpr std::array<NodeState, 5> kStates = {NodeState::Off, NodeState::Booting,
                                              NodeState::Idle, NodeState::Busy,
                                              NodeState::ShuttingDown};

/// Every bucket 0..nodes_per_chassis() in visitor order.
std::vector<ChassisId> visit_order(const Cluster& cl) {
  std::vector<ChassisId> order;
  for (std::int32_t idle = 0; idle <= cl.topology().nodes_per_chassis(); ++idle) {
    cl.visit_idle_bucket(idle, [&order](ChassisId c) {
      order.push_back(c);
      return false;
    });
  }
  return order;
}

std::vector<ChassisId> sorted_order(const Cluster& cl) {
  std::vector<std::pair<std::int32_t, ChassisId>> keyed;
  for (ChassisId c = 0; c < cl.topology().total_chassis(); ++c) {
    keyed.emplace_back(cl.idle_nodes(c), c);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<ChassisId> order;
  for (const auto& [idle, c] : keyed) order.push_back(c);
  return order;
}

void expect_consistent(const Cluster& cl, int step) {
  ASSERT_EQ(cl.watts(), cl.audit_watts()) << "step " << step;
  ASSERT_TRUE(cl.audit_idle_index()) << "step " << step;
  std::array<std::int32_t, kStates.size()> by_state{};
  for (NodeId n = 0; n < cl.topology().total_nodes(); ++n) {
    ++by_state[static_cast<std::size_t>(cl.state(n))];
  }
  for (NodeState s : kStates) {
    ASSERT_EQ(cl.count(s), by_state[static_cast<std::size_t>(s)]) << "step " << step;
  }
  ASSERT_EQ(visit_order(cl), sorted_order(cl)) << "step " << step;
}

/// Per-node (state, freq) as the transitions set them: the reference the
/// busy-per-frequency counts are recounted from.
struct Shadow {
  explicit Shadow(const Cluster& cl)
      : state(static_cast<std::size_t>(cl.topology().total_nodes()), NodeState::Idle),
        freq(state.size(), 0) {}

  void apply(const std::vector<NodeId>& nodes, NodeState s, FreqIndex f) {
    for (NodeId n : nodes) {
      state[static_cast<std::size_t>(n)] = s;
      freq[static_cast<std::size_t>(n)] = s == NodeState::Busy ? f : 0;
    }
  }

  void expect_matches(const Cluster& cl, int step) const {
    std::vector<std::int32_t> by_freq(cl.frequencies().size(), 0);
    for (std::size_t n = 0; n < state.size(); ++n) {
      ASSERT_EQ(cl.state(static_cast<NodeId>(n)), state[n]) << "node " << n << " step " << step;
      if (state[n] == NodeState::Busy) ++by_freq[freq[n]];
    }
    ASSERT_EQ(cl.busy_count_by_freq(), by_freq) << "step " << step;
  }

  std::vector<NodeState> state;
  std::vector<FreqIndex> freq;
};

/// A random node list: a packed run of consecutive ids, a spread list of
/// random ids, or a list with repeated ids.
std::vector<NodeId> random_list(util::Rng& rng, const Topology& topo) {
  std::int32_t total = topo.total_nodes();
  std::int32_t npc = topo.nodes_per_chassis();
  std::vector<NodeId> nodes;
  switch (rng.uniform_int(0, 2)) {
    case 0: {  // packed: consecutive ids across up to ~3 chassis
      auto len = static_cast<std::int32_t>(rng.uniform_int(1, 3 * npc));
      auto first = static_cast<NodeId>(rng.uniform_int(0, total - 1));
      for (NodeId n = first; n < std::min(total, first + len); ++n) nodes.push_back(n);
      break;
    }
    case 1: {  // spread: random ids, sorted or in draw order
      auto len = rng.uniform_int(1, 40);
      for (std::int64_t i = 0; i < len; ++i) {
        nodes.push_back(static_cast<NodeId>(rng.uniform_int(0, total - 1)));
      }
      if (rng.chance(0.5)) std::sort(nodes.begin(), nodes.end());
      break;
    }
    default: {  // duplicates: a few ids, each repeated, some back to back
      auto len = rng.uniform_int(2, 12);
      auto base = static_cast<NodeId>(rng.uniform_int(0, total - 1));
      for (std::int64_t i = 0; i < len; ++i) {
        NodeId n = std::min<NodeId>(total - 1, base + static_cast<NodeId>(rng.uniform_int(0, 3)));
        nodes.push_back(n);
        if (rng.chance(0.5)) nodes.push_back(n);
      }
      break;
    }
  }
  return nodes;
}

/// Feeds seeded random lists through the span mutator and, node by node,
/// through a twin; both must match the audits and each other after every
/// call.
void churn(Cluster cl, std::uint64_t seed, int steps) {
  Cluster twin = cl;
  Shadow shadow(cl);
  util::Rng rng(seed);
  auto both = [&](const std::vector<NodeId>& nodes, NodeState state, FreqIndex freq) {
    cl.set_state(nodes, state, freq);
    for (NodeId n : nodes) twin.set_state(n, state, freq);
    shadow.apply(nodes, state, freq);
  };
  for (int step = 0; step < steps; ++step) {
    std::vector<NodeId> nodes = random_list(rng, cl.topology());
    NodeState state = kStates[static_cast<std::size_t>(rng.uniform_int(0, 4))];
    auto freq = static_cast<FreqIndex>(
        rng.uniform_int(0, static_cast<std::int64_t>(cl.frequencies().size()) - 1));
    if (rng.chance(0.25)) {
      // Rescale: set the list Busy, then move the same nodes to another level.
      both(nodes, NodeState::Busy, freq);
      state = NodeState::Busy;
      freq = static_cast<FreqIndex>((freq + 1) % cl.frequencies().size());
    }
    both(nodes, state, freq);

    expect_consistent(cl, step);
    shadow.expect_matches(cl, step);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(cl.watts(), twin.watts()) << "step " << step;
    ASSERT_EQ(cl.busy_count_by_freq(), twin.busy_count_by_freq()) << "step " << step;
    ASSERT_EQ(visit_order(cl), visit_order(twin)) << "step " << step;
  }
}

TEST(ClusterSpanMutator, RandomListsMatchAuditsAtTwoRacks) {
  churn(curie::make_scaled_cluster(2), 20150525, 4000);
}

TEST(ClusterSpanMutator, RandomListsMatchAuditsAtCurieScale) {
  churn(curie::make_cluster(), 5040, 600);
}

TEST(ClusterSpanMutator, EmptyListIsANoOp) {
  Cluster cl = curie::make_scaled_cluster(2);
  const double before = cl.watts();
  cl.set_state(std::span<const NodeId>{}, NodeState::Off);
  EXPECT_EQ(cl.watts(), before);
  expect_consistent(cl, 0);
}

TEST(ClusterSpanMutator, RejectedListLeavesBookkeepingConsistent) {
  Cluster cl = curie::make_scaled_cluster(2);
  // A bad frequency is rejected before any node changes.
  std::vector<NodeId> nodes = {0, 1, 2};
  EXPECT_THROW(cl.set_state(nodes, NodeState::Busy, 99), CheckError);
  EXPECT_EQ(cl.count(NodeState::Busy), 0);
  // A bad id is rejected at the start of its run: the runs before it are
  // settled in full, so the audits still agree.
  nodes = {0, 1, 40, -1, 41};
  EXPECT_THROW(cl.set_state(nodes, NodeState::Busy, 3), CheckError);
  EXPECT_EQ(cl.count(NodeState::Busy), 3);
  expect_consistent(cl, 0);
  nodes = {5, cl.topology().total_nodes()};
  EXPECT_THROW(cl.set_state(nodes, NodeState::Off), CheckError);
  EXPECT_EQ(cl.state(5), NodeState::Off);
  expect_consistent(cl, 0);
}

}  // namespace
}  // namespace ps::cluster
