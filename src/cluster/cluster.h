// Stateful cluster: node power states plus O(1) incremental power tracking.
//
// The RJMS "keeps the state of each resource internally and can deduce the
// power consumption of the whole cluster at any moment" (paper §IV-A).
// Power is accounted hierarchically: a chassis (rack) whose nodes are all
// Off contributes nothing — not even BMC draw or infrastructure — which is
// exactly the paper's power bonus.
//
// Internally watts are tracked as integer milliwatts so that millions of
// incremental updates stay drift-free and bit-deterministic.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/node_bits.h"
#include "cluster/power_model.h"
#include "util/check.h"

namespace ps::cluster {

class Cluster {
 public:
  explicit Cluster(PowerModel model);

  const PowerModel& power_model() const noexcept { return model_; }
  const Topology& topology() const noexcept { return model_.topology(); }
  const FrequencyTable& frequencies() const noexcept { return model_.frequencies(); }

  NodeState state(NodeId node) const {
    PS_CHECK_MSG(topology().valid_node(node), "node id out of range");
    return nodes_[static_cast<std::size_t>(node)].state;
  }

  /// Transitions every node of `nodes`, in order, to `state` (freq
  /// meaningful only for Busy). Any state->state transition is permitted:
  /// transition legality is the controller's policy concern, power
  /// accounting is ours. Node slots and per-chassis node sums change per
  /// node; chassis/rack gating, the total and the idle bucket change once
  /// per maximal run of nodes in one chassis, so a job's packed node list
  /// costs one gating update per chassis it touches. Repeated ids are
  /// allowed and apply in order. An out-of-range id throws before its run
  /// starts, with the runs ahead of it already applied.
  void set_state(std::span<const NodeId> nodes, NodeState state, FreqIndex freq = 0);
  void set_state(NodeId node, NodeState state, FreqIndex freq = 0) {
    set_state(std::span<const NodeId>(&node, 1), state, freq);
  }

  /// Instantaneous cluster power (W), maintained incrementally.
  double watts() const noexcept { return static_cast<double>(total_mw_) / 1000.0; }

  /// Full O(N) recomputation used to validate the incremental bookkeeping.
  double audit_watts() const;

  // --- aggregates (metrics & scheduler queries) ---------------------------

  std::int32_t count(NodeState state) const;
  /// Busy nodes per DVFS level (index = FreqIndex).
  const std::vector<std::int32_t>& busy_count_by_freq() const noexcept {
    return busy_by_freq_;
  }

  // --- incremental idle-node index (selector hot path) --------------------

  /// Idle nodes in one chassis, maintained incrementally by set_state.
  std::int32_t idle_nodes(ChassisId chassis) const {
    PS_CHECK(chassis >= 0 && chassis < topology().total_chassis());
    return chassis_idle_[static_cast<std::size_t>(chassis)];
  }

  /// Idle bits of nodes [first, first + len), node `first` at bit 0, for
  /// 1 <= len <= 64 inside the machine: one window of the node-bit layout
  /// (cluster/node_bits.h), kept by set_state. A chassis of npc nodes is
  /// the windows at first_node_of_chassis(c) + 64k.
  std::uint64_t idle_window(NodeId first, std::int32_t len) const noexcept {
    return idle_.window(first, len);
  }

  /// Calls `fn(chassis)` for each chassis holding exactly `idle` Idle
  /// nodes, ascending chassis id, and stops at the first call that returns
  /// true; returns whether one did. Valid idle values are
  /// 0..nodes_per_chassis(); selectors walk buckets 1..nodes_per_chassis()
  /// to get (idle asc, id asc) ordering in O(chassis visited) instead of
  /// an O(nodes) sweep + sort. `fn` must not change node states.
  template <typename Fn>
  bool visit_idle_bucket(std::int32_t idle, Fn&& fn) const {
    PS_CHECK(idle >= 0 && idle <= topology().nodes_per_chassis());
    std::int32_t left = bucket_size_[static_cast<std::size_t>(idle)];
    const std::uint64_t* words =
        idle_bits_.data() + static_cast<std::size_t>(idle) * bucket_words_;
    for (std::size_t w = 0; left > 0; ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        auto chassis = static_cast<ChassisId>(w * 64 + static_cast<std::size_t>(
                                                           std::countr_zero(bits)));
        if (fn(chassis)) return true;
        --left;
      }
    }
    return false;
  }

  /// Full O(N) recount cross-checking idle_nodes(), the idle buckets and
  /// the idle bits against node states (the audit_watts() of the idle
  /// index). Returns false on any disagreement.
  bool audit_idle_index() const;

  /// Nodes in any powered state (not Off).
  std::int32_t powered_nodes() const { return total_nodes_ - count(NodeState::Off); }

 private:
  std::int64_t node_mw(NodeState state, FreqIndex freq) const;
  std::int64_t chassis_mw(ChassisId c) const;
  std::int64_t rack_mw(RackId r) const;
  void move_idle_bucket(ChassisId c, std::int32_t old_idle, std::int32_t new_idle);

  PowerModel model_;
  std::int32_t total_nodes_;

  // Two bytes per node: the constructor checks that every FreqIndex of
  // the model fits the byte.
  struct NodeSlot {
    NodeState state = NodeState::Idle;
    std::uint8_t freq = 0;  // meaningful when Busy
  };
  static_assert(sizeof(NodeSlot) == 2);
  std::vector<NodeSlot> nodes_;
  NodeBits idle_;  // bit n set iff node n is Idle

  // Per-chassis and per-rack gating state.
  std::vector<std::int32_t> chassis_nodes_on_;   // nodes not Off
  std::vector<std::int32_t> chassis_idle_;       // nodes in state Idle
  // One bitset per idle count k (bucket_words_ words each, bucket k at
  // word k * bucket_words_): bit c set iff chassis c has exactly k idle
  // nodes. A move clears one bit and sets one. bucket_size_[k] counts the
  // set bits, so a walk skips an empty bucket and stops at its last member.
  std::size_t bucket_words_ = 0;
  std::vector<std::uint64_t> idle_bits_;
  std::vector<std::int32_t> bucket_size_;
  std::vector<std::int64_t> chassis_node_mw_;    // sum of node mw (incl. BMC of Off nodes)
  std::vector<std::int32_t> rack_chassis_on_;    // chassis with a node not Off
  std::vector<std::int64_t> rack_chassis_mw_;    // sum of gated chassis contributions
  std::int64_t total_mw_ = 0;

  // Cached per-state node and per-level infrastructure milliwatts.
  std::int64_t down_mw_, boot_mw_, idle_mw_, shut_mw_;
  std::int64_t chassis_infra_mw_, rack_infra_mw_;
  std::vector<std::int64_t> busy_mw_;

  // Aggregate counters.
  std::array<std::int32_t, 5> state_count_{};
  std::vector<std::int32_t> busy_by_freq_;
};

}  // namespace ps::cluster
