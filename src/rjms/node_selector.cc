#include "rjms/node_selector.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace ps::rjms {

namespace {

/// Available nodes of [first, first + len), 1 <= len <= 64: idle and not
/// blocked, node `first` at bit 0.
std::uint64_t free_window(const SelectionContext& ctx, cluster::NodeId first,
                          std::int32_t len) {
  return ctx.cluster.idle_window(first, len) & ~ctx.blocked.window(first, len);
}

/// Appends the available nodes of [first, first + len), ascending, until
/// `out` holds `count`; returns whether it does.
bool take_window(const SelectionContext& ctx, cluster::NodeId first, std::int32_t len,
                 std::int32_t count, std::vector<cluster::NodeId>& out) {
  for (std::uint64_t free = free_window(ctx, first, len); free != 0; free &= free - 1) {
    out.push_back(first + std::countr_zero(free));
    if (static_cast<std::int32_t>(out.size()) == count) return true;
  }
  return false;
}

// All three selectors read the cluster's idle bits and idle index instead
// of probing nodes, so one select costs O(chassis visited + nodes taken),
// not O(cluster), and one word operation per 64 nodes looked at.

class PackingSelector final : public NodeSelector {
 public:
  std::string name() const override { return "packing"; }

 private:
  bool pick(const SelectionContext& ctx, std::int32_t count,
            std::vector<cluster::NodeId>& out) override {
    const std::int32_t per_chassis = ctx.cluster.topology().nodes_per_chassis();
    // (idle count ascending, id ascending) straight off the bucket index:
    // filling the most loaded chassis first leaves whole chassis free for
    // grouped shutdown. Within a chassis, ascending node id. select() does
    // not mutate node states, so walking the live index is safe.
    auto fill = [&](cluster::ChassisId chassis) {
      const cluster::NodeId first = chassis * per_chassis;
      for (std::int32_t off = 0; off < per_chassis; off += 64) {
        if (take_window(ctx, first + off, std::min(64, per_chassis - off), count, out)) {
          return true;
        }
      }
      return false;
    };
    for (std::int32_t idle = 1; idle <= per_chassis; ++idle) {
      if (ctx.cluster.visit_idle_bucket(idle, fill)) return true;
    }
    return false;
  }
};

class LinearSelector final : public NodeSelector {
 public:
  std::string name() const override { return "linear"; }

 private:
  bool pick(const SelectionContext& ctx, std::int32_t count,
            std::vector<cluster::NodeId>& out) override {
    // First fit by ascending node id: the node-bit layout is id order, so
    // this is a scan of aligned 64-node windows.
    const cluster::NodeId total = ctx.cluster.topology().total_nodes();
    for (cluster::NodeId first = 0; first < total; first += 64) {
      if (take_window(ctx, first, std::min(64, total - first), count, out)) return true;
    }
    return false;
  }
};

class SpreadSelector final : public NodeSelector {
 public:
  std::string name() const override { return "spread"; }

 private:
  bool pick(const SelectionContext& ctx, std::int32_t count,
            std::vector<cluster::NodeId>& out) override {
    const cluster::Topology& topo = ctx.cluster.topology();
    const std::int32_t per_chassis = topo.nodes_per_chassis();
    // Round-robin: index i within chassis, sweeping all chassis, so
    // allocations scatter as widely as possible (ablation baseline). Per
    // 64-index window, rows_ holds each chassis's available nodes; index i
    // takes bit i of every row, ascending chassis.
    for (std::int32_t off = 0; off < per_chassis; off += 64) {
      const std::int32_t len = std::min(64, per_chassis - off);
      rows_.clear();
      std::uint64_t any = 0;
      for (cluster::ChassisId c = 0; c < topo.total_chassis(); ++c) {
        if (ctx.cluster.idle_nodes(c) == 0) continue;
        std::uint64_t free = free_window(ctx, c * per_chassis + off, len);
        if (free == 0) continue;
        rows_.emplace_back(c * per_chassis + off, free);
        any |= free;
      }
      for (; any != 0; any &= any - 1) {
        const int i = std::countr_zero(any);
        for (const auto& [first, free] : rows_) {
          if (((free >> i) & 1) == 0) continue;
          out.push_back(first + i);
          if (static_cast<std::int32_t>(out.size()) == count) return true;
        }
      }
    }
    return false;
  }

  /// (first node of the window, its available bits) per chassis.
  std::vector<std::pair<cluster::NodeId, std::uint64_t>> rows_;
};

}  // namespace

std::unique_ptr<NodeSelector> make_selector(SelectorKind kind) {
  switch (kind) {
    case SelectorKind::Packing: return std::make_unique<PackingSelector>();
    case SelectorKind::Linear: return std::make_unique<LinearSelector>();
    case SelectorKind::Spread: return std::make_unique<SpreadSelector>();
  }
  PS_CHECK_MSG(false, "unknown selector kind");
  return nullptr;
}

}  // namespace ps::rjms
