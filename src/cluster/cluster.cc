#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps::cluster {

namespace {
std::int64_t to_mw(double watts) { return std::llround(watts * 1000.0); }
std::size_t state_index(NodeState s) { return static_cast<std::size_t>(s); }
}  // namespace

Cluster::Cluster(PowerModel model)
    : model_(std::move(model)), total_nodes_(model_.topology().total_nodes()) {
  const Topology& topo = model_.topology();
  down_mw_ = to_mw(model_.node_watts(NodeState::Off, 0));
  boot_mw_ = to_mw(model_.node_watts(NodeState::Booting, 0));
  idle_mw_ = to_mw(model_.node_watts(NodeState::Idle, 0));
  shut_mw_ = to_mw(model_.node_watts(NodeState::ShuttingDown, 0));
  busy_mw_.resize(model_.frequencies().size());
  for (FreqIndex f = 0; f < busy_mw_.size(); ++f) {
    busy_mw_[f] = to_mw(model_.frequencies().watts(f));
  }

  nodes_.assign(static_cast<std::size_t>(total_nodes_), NodeSlot{});
  state_count_[state_index(NodeState::Idle)] = total_nodes_;
  busy_by_freq_.assign(model_.frequencies().size(), 0);

  auto chassis_count = static_cast<std::size_t>(topo.total_chassis());
  chassis_nodes_on_.assign(chassis_count, topo.nodes_per_chassis());
  chassis_idle_.assign(chassis_count, topo.nodes_per_chassis());
  chassis_by_idle_.assign(static_cast<std::size_t>(topo.nodes_per_chassis()) + 1, {});
  auto& full_bucket = chassis_by_idle_[static_cast<std::size_t>(topo.nodes_per_chassis())];
  full_bucket.resize(chassis_count);
  for (ChassisId c = 0; c < topo.total_chassis(); ++c) {
    full_bucket[static_cast<std::size_t>(c)] = c;
  }
  chassis_node_mw_.assign(chassis_count,
                          static_cast<std::int64_t>(topo.nodes_per_chassis()) * idle_mw_);
  auto rack_count = static_cast<std::size_t>(topo.racks());
  rack_chassis_on_.assign(rack_count, topo.chassis_per_rack());

  std::int64_t one_chassis = to_mw(model_.chassis_infra_watts()) +
                             static_cast<std::int64_t>(topo.nodes_per_chassis()) * idle_mw_;
  rack_chassis_mw_.assign(rack_count,
                          static_cast<std::int64_t>(topo.chassis_per_rack()) * one_chassis);
  std::int64_t one_rack = to_mw(model_.rack_infra_watts()) +
                          static_cast<std::int64_t>(topo.chassis_per_rack()) * one_chassis;
  total_mw_ = static_cast<std::int64_t>(topo.racks()) * one_rack;
}

std::int64_t Cluster::node_mw(NodeState state, FreqIndex freq) const {
  switch (state) {
    case NodeState::Off: return down_mw_;
    case NodeState::Booting: return boot_mw_;
    case NodeState::Idle: return idle_mw_;
    case NodeState::Busy:
      PS_CHECK_MSG(freq < busy_mw_.size(), "busy frequency out of range");
      return busy_mw_[freq];
    case NodeState::ShuttingDown: return shut_mw_;
  }
  return 0;
}

std::int64_t Cluster::chassis_mw(ChassisId c) const {
  auto ci = static_cast<std::size_t>(c);
  if (chassis_nodes_on_[ci] == 0) return 0;
  return to_mw(model_.chassis_infra_watts()) + chassis_node_mw_[ci];
}

std::int64_t Cluster::rack_mw(RackId r) const {
  auto ri = static_cast<std::size_t>(r);
  if (rack_chassis_on_[ri] == 0) return 0;
  return to_mw(model_.rack_infra_watts()) + rack_chassis_mw_[ri];
}

NodeState Cluster::state(NodeId node) const {
  PS_CHECK_MSG(topology().valid_node(node), "node id out of range");
  return nodes_[static_cast<std::size_t>(node)].state;
}

void Cluster::set_state(NodeId node, NodeState new_state, FreqIndex freq) {
  PS_CHECK_MSG(topology().valid_node(node), "node id out of range");
  if (new_state == NodeState::Busy) {
    PS_CHECK_MSG(freq < busy_mw_.size(), "busy frequency out of range");
  } else {
    freq = 0;
  }
  NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
  NodeState old_state = slot.state;
  FreqIndex old_freq = slot.freq;
  if (old_state == new_state && old_freq == freq) return;

  ChassisId c = topology().chassis_of_node(node);
  RackId r = topology().rack_of_chassis(c);
  auto ci = static_cast<std::size_t>(c);
  auto ri = static_cast<std::size_t>(r);

  std::int64_t old_chassis = chassis_mw(c);
  std::int64_t old_rack = rack_mw(r);

  bool was_on = old_state != NodeState::Off;
  bool is_on = new_state != NodeState::Off;
  chassis_node_mw_[ci] += node_mw(new_state, freq) - node_mw(old_state, old_freq);
  bool chassis_was_on = chassis_nodes_on_[ci] > 0;
  chassis_nodes_on_[ci] += (is_on ? 1 : 0) - (was_on ? 1 : 0);
  bool chassis_is_on = chassis_nodes_on_[ci] > 0;
  PS_CHECK(chassis_nodes_on_[ci] >= 0);

  std::int64_t new_chassis = chassis_mw(c);
  rack_chassis_mw_[ri] += new_chassis - old_chassis;
  rack_chassis_on_[ri] += (chassis_is_on ? 1 : 0) - (chassis_was_on ? 1 : 0);
  PS_CHECK(rack_chassis_on_[ri] >= 0);

  std::int64_t new_rack = rack_mw(r);
  total_mw_ += new_rack - old_rack;

  // Aggregate counters.
  --state_count_[state_index(old_state)];
  ++state_count_[state_index(new_state)];
  if (old_state == NodeState::Busy) --busy_by_freq_[old_freq];
  if (new_state == NodeState::Busy) ++busy_by_freq_[freq];

  // Idle index: move the chassis between buckets when its idle count moves.
  std::int32_t idle_delta = (new_state == NodeState::Idle ? 1 : 0) -
                            (old_state == NodeState::Idle ? 1 : 0);
  if (idle_delta != 0) {
    std::int32_t old_idle = chassis_idle_[ci];
    std::int32_t new_idle = old_idle + idle_delta;
    PS_CHECK(new_idle >= 0 && new_idle <= topology().nodes_per_chassis());
    chassis_idle_[ci] = new_idle;
    move_idle_bucket(c, old_idle, new_idle);
  }

  slot.state = new_state;
  slot.freq = freq;
}

void Cluster::move_idle_bucket(ChassisId c, std::int32_t old_idle, std::int32_t new_idle) {
  auto& from = chassis_by_idle_[static_cast<std::size_t>(old_idle)];
  auto pos = std::lower_bound(from.begin(), from.end(), c);
  PS_CHECK(pos != from.end() && *pos == c);
  from.erase(pos);
  auto& to = chassis_by_idle_[static_cast<std::size_t>(new_idle)];
  to.insert(std::lower_bound(to.begin(), to.end(), c), c);
}

std::int32_t Cluster::idle_nodes(ChassisId chassis) const {
  PS_CHECK(chassis >= 0 && chassis < topology().total_chassis());
  return chassis_idle_[static_cast<std::size_t>(chassis)];
}

const std::vector<ChassisId>& Cluster::chassis_with_idle(std::int32_t idle) const {
  PS_CHECK(idle >= 0 && idle <= topology().nodes_per_chassis());
  return chassis_by_idle_[static_cast<std::size_t>(idle)];
}

bool Cluster::audit_idle_index() const {
  const Topology& topo = topology();
  std::vector<std::int32_t> recount(static_cast<std::size_t>(topo.total_chassis()), 0);
  for (NodeId n = 0; n < topo.total_nodes(); ++n) {
    if (nodes_[static_cast<std::size_t>(n)].state == NodeState::Idle) {
      ++recount[static_cast<std::size_t>(topo.chassis_of_node(n))];
    }
  }
  if (recount != chassis_idle_) return false;
  // Every chassis must sit in exactly the bucket of its recounted idle
  // value, and buckets must be sorted with no duplicates or strays.
  std::size_t bucketed = 0;
  for (std::size_t k = 0; k < chassis_by_idle_.size(); ++k) {
    const auto& bucket = chassis_by_idle_[k];
    if (!std::is_sorted(bucket.begin(), bucket.end())) return false;
    if (std::adjacent_find(bucket.begin(), bucket.end()) != bucket.end()) return false;
    for (ChassisId c : bucket) {
      if (c < 0 || c >= topo.total_chassis()) return false;
      if (recount[static_cast<std::size_t>(c)] != static_cast<std::int32_t>(k)) {
        return false;
      }
    }
    bucketed += bucket.size();
  }
  return bucketed == static_cast<std::size_t>(topo.total_chassis());
}

double Cluster::audit_watts() const {
  const Topology& topo = topology();
  std::int64_t total = 0;
  for (RackId r = 0; r < topo.racks(); ++r) {
    bool rack_on = false;
    std::int64_t rack_sum = 0;
    for (std::int32_t cr = 0; cr < topo.chassis_per_rack(); ++cr) {
      ChassisId c = topo.first_chassis_of_rack(r) + cr;
      bool chassis_on = false;
      std::int64_t chassis_sum = 0;
      for (NodeId node : topo.nodes_of_chassis(c)) {
        const NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
        chassis_sum += node_mw(slot.state, slot.freq);
        if (slot.state != NodeState::Off) chassis_on = true;
      }
      if (chassis_on) {
        rack_sum += to_mw(model_.chassis_infra_watts()) + chassis_sum;
        rack_on = true;
      }
    }
    if (rack_on) total += to_mw(model_.rack_infra_watts()) + rack_sum;
  }
  return static_cast<double>(total) / 1000.0;
}

std::int32_t Cluster::count(NodeState state) const {
  return state_count_[state_index(state)];
}

}  // namespace ps::cluster
