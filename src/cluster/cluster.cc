#include "cluster/cluster.h"

#include <cmath>
#include <utility>

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
  chassis_infra_mw_ = to_mw(model_.chassis_infra_watts());
  rack_infra_mw_ = to_mw(model_.rack_infra_watts());
  PS_CHECK_MSG(model_.frequencies().size() <= 256, "more DVFS levels than a node slot holds");
  busy_mw_.resize(model_.frequencies().size());
  for (FreqIndex f = 0; f < busy_mw_.size(); ++f) {
    busy_mw_[f] = to_mw(model_.frequencies().watts(f));
  }

  nodes_.assign(static_cast<std::size_t>(total_nodes_), NodeSlot{});
  idle_.assign(total_nodes_, true);
  state_count_[state_index(NodeState::Idle)] = total_nodes_;
  busy_by_freq_.assign(model_.frequencies().size(), 0);

  auto chassis_count = static_cast<std::size_t>(topo.total_chassis());
  chassis_nodes_on_.assign(chassis_count, topo.nodes_per_chassis());
  chassis_idle_.assign(chassis_count, topo.nodes_per_chassis());
  bucket_words_ = (chassis_count + 63) / 64;
  idle_bits_.assign((static_cast<std::size_t>(topo.nodes_per_chassis()) + 1) * bucket_words_, 0);
  std::uint64_t* full_bucket =
      idle_bits_.data() + static_cast<std::size_t>(topo.nodes_per_chassis()) * bucket_words_;
  for (std::size_t c = 0; c < chassis_count; ++c) full_bucket[c / 64] |= 1ULL << (c % 64);
  bucket_size_.assign(static_cast<std::size_t>(topo.nodes_per_chassis()) + 1, 0);
  bucket_size_.back() = topo.total_chassis();
  chassis_node_mw_.assign(chassis_count,
                          static_cast<std::int64_t>(topo.nodes_per_chassis()) * idle_mw_);
  auto rack_count = static_cast<std::size_t>(topo.racks());
  rack_chassis_on_.assign(rack_count, topo.chassis_per_rack());

  std::int64_t one_chassis =
      chassis_infra_mw_ + static_cast<std::int64_t>(topo.nodes_per_chassis()) * idle_mw_;
  rack_chassis_mw_.assign(rack_count,
                          static_cast<std::int64_t>(topo.chassis_per_rack()) * one_chassis);
  std::int64_t one_rack =
      rack_infra_mw_ + static_cast<std::int64_t>(topo.chassis_per_rack()) * one_chassis;
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
  return chassis_infra_mw_ + chassis_node_mw_[ci];
}

std::int64_t Cluster::rack_mw(RackId r) const {
  auto ri = static_cast<std::size_t>(r);
  if (rack_chassis_on_[ri] == 0) return 0;
  return rack_infra_mw_ + rack_chassis_mw_[ri];
}

void Cluster::set_state(std::span<const NodeId> nodes, NodeState new_state,
                        FreqIndex freq) {
  if (new_state == NodeState::Busy) {
    PS_CHECK_MSG(freq < busy_mw_.size(), "busy frequency out of range");
  } else {
    freq = 0;
  }
  const Topology& topo = topology();
  const std::int32_t per_chassis = topo.nodes_per_chassis();
  const std::int64_t new_mw = node_mw(new_state, freq);
  const std::int32_t on_in = new_state != NodeState::Off ? 1 : 0;
  const std::int32_t idle_in = new_state == NodeState::Idle ? 1 : 0;

  std::size_t i = 0;
  while (i < nodes.size()) {
    // One maximal run of nodes in chassis c: gating, the rack and total
    // sums and the idle bucket are read before it and settled after it.
    PS_CHECK_MSG(topo.valid_node(nodes[i]), "node id out of range");
    ChassisId c = topo.chassis_of_node(nodes[i]);
    RackId r = topo.rack_of_chassis(c);
    auto ci = static_cast<std::size_t>(c);
    auto ri = static_cast<std::size_t>(r);
    const NodeId first = c * per_chassis;

    const std::int64_t old_chassis = chassis_mw(c);
    const std::int64_t old_rack = rack_mw(r);
    const bool chassis_was_on = chassis_nodes_on_[ci] > 0;
    const std::int32_t old_idle = chassis_idle_[ci];

    for (; i < nodes.size() && nodes[i] >= first && nodes[i] - first < per_chassis; ++i) {
      NodeSlot& slot = nodes_[static_cast<std::size_t>(nodes[i])];
      NodeState old_state = slot.state;
      if (old_state == new_state && slot.freq == freq) continue;

      chassis_node_mw_[ci] += new_mw - node_mw(old_state, slot.freq);
      chassis_nodes_on_[ci] += on_in - (old_state != NodeState::Off ? 1 : 0);
      PS_CHECK(chassis_nodes_on_[ci] >= 0);

      --state_count_[state_index(old_state)];
      ++state_count_[state_index(new_state)];
      if (old_state == NodeState::Busy) --busy_by_freq_[slot.freq];
      if (new_state == NodeState::Busy) ++busy_by_freq_[freq];

      const std::int32_t idle_out = old_state == NodeState::Idle ? 1 : 0;
      std::int32_t idle = chassis_idle_[ci] + idle_in - idle_out;
      PS_CHECK(idle >= 0 && idle <= per_chassis);
      chassis_idle_[ci] = idle;
      if (idle_in != idle_out) idle_.flip(nodes[i]);

      slot.state = new_state;
      slot.freq = static_cast<std::uint8_t>(freq);
    }

    const bool chassis_is_on = chassis_nodes_on_[ci] > 0;
    rack_chassis_mw_[ri] += chassis_mw(c) - old_chassis;
    rack_chassis_on_[ri] += (chassis_is_on ? 1 : 0) - (chassis_was_on ? 1 : 0);
    PS_CHECK(rack_chassis_on_[ri] >= 0);
    total_mw_ += rack_mw(r) - old_rack;

    if (chassis_idle_[ci] != old_idle) move_idle_bucket(c, old_idle, chassis_idle_[ci]);
  }
}

void Cluster::move_idle_bucket(ChassisId c, std::int32_t old_idle, std::int32_t new_idle) {
  std::size_t word = static_cast<std::size_t>(c) / 64;
  std::uint64_t bit = 1ULL << (static_cast<std::size_t>(c) % 64);
  std::uint64_t& from = idle_bits_[static_cast<std::size_t>(old_idle) * bucket_words_ + word];
  PS_CHECK((from & bit) != 0);
  from &= ~bit;
  idle_bits_[static_cast<std::size_t>(new_idle) * bucket_words_ + word] |= bit;
  --bucket_size_[static_cast<std::size_t>(old_idle)];
  ++bucket_size_[static_cast<std::size_t>(new_idle)];
}

bool Cluster::audit_idle_index() const {
  const Topology& topo = topology();
  std::vector<std::int32_t> recount(static_cast<std::size_t>(topo.total_chassis()), 0);
  for (NodeId n = 0; n < topo.total_nodes(); ++n) {
    const bool idle = nodes_[static_cast<std::size_t>(n)].state == NodeState::Idle;
    if (idle != idle_.test(n)) return false;
    if (idle) ++recount[static_cast<std::size_t>(topo.chassis_of_node(n))];
  }
  if (recount != chassis_idle_) return false;
  // Each bucket's size must be its bit count (the walk trusts it), and
  // every chassis must sit in exactly the bucket of its recounted idle
  // value, with no strays past the last chassis.
  for (std::int32_t k = 0; k <= topo.nodes_per_chassis(); ++k) {
    const std::uint64_t* words = idle_bits_.data() + static_cast<std::size_t>(k) * bucket_words_;
    std::int32_t bits = 0;
    for (std::size_t w = 0; w < bucket_words_; ++w) bits += std::popcount(words[w]);
    if (bits != bucket_size_[static_cast<std::size_t>(k)]) return false;
  }
  std::int32_t bucketed = 0;
  bool stray = false;
  for (std::int32_t k = 0; k <= topo.nodes_per_chassis(); ++k) {
    stray = stray || visit_idle_bucket(k, [&](ChassisId c) {
              ++bucketed;
              return c >= topo.total_chassis() || recount[static_cast<std::size_t>(c)] != k;
            });
  }
  return !stray && bucketed == topo.total_chassis();
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
