#include "rjms/node_selector.h"

#include "util/check.h"

namespace ps::rjms {

bool node_available(const SelectionContext& ctx, cluster::NodeId node) {
  return ctx.cluster.state(node) == cluster::NodeState::Idle && !ctx.blocked.blocked(node);
}

namespace {

/// Collects up to `count` available nodes from `chassis`, appending to out.
void take_from_chassis(const SelectionContext& ctx, cluster::ChassisId chassis,
                       std::int32_t count, std::vector<cluster::NodeId>& out) {
  const cluster::Topology& topo = ctx.cluster.topology();
  cluster::NodeId first = topo.first_node_of_chassis(chassis);
  for (std::int32_t i = 0; i < topo.nodes_per_chassis(); ++i) {
    if (static_cast<std::int32_t>(out.size()) >= count) return;
    cluster::NodeId node = first + i;
    if (node_available(ctx, node)) out.push_back(node);
  }
}

// All three selectors read the cluster's incremental idle index instead of
// sweeping nodes, so one select costs O(chassis visited + nodes taken), not
// O(cluster). Selection order is unchanged from the sweeping originals.

class PackingSelector final : public NodeSelector {
 public:
  std::optional<std::vector<cluster::NodeId>> select(const SelectionContext& ctx,
                                                     std::int32_t count) override {
    const cluster::Topology& topo = ctx.cluster.topology();
    std::vector<cluster::NodeId> out;
    out.reserve(static_cast<std::size_t>(count));
    // (idle count ascending, id ascending) straight off the bucket index:
    // filling the most loaded chassis first leaves whole chassis free for
    // grouped shutdown. select() does not mutate node states, so walking
    // the live index is safe.
    auto fill = [&](cluster::ChassisId chassis) {
      take_from_chassis(ctx, chassis, count, out);
      return static_cast<std::int32_t>(out.size()) >= count;
    };
    for (std::int32_t idle = 1; idle <= topo.nodes_per_chassis(); ++idle) {
      if (ctx.cluster.visit_idle_bucket(idle, fill)) return out;
    }
    return std::nullopt;
  }

  std::string name() const override { return "packing"; }
};

class LinearSelector final : public NodeSelector {
 public:
  std::optional<std::vector<cluster::NodeId>> select(const SelectionContext& ctx,
                                                     std::int32_t count) override {
    const cluster::Topology& topo = ctx.cluster.topology();
    std::vector<cluster::NodeId> out;
    out.reserve(static_cast<std::size_t>(count));
    // First fit by ascending node id == ascending chassis id with ascending
    // node within each chassis; chassis with no idle node contribute nothing
    // and are skipped via the index.
    for (cluster::ChassisId c = 0; c < topo.total_chassis(); ++c) {
      if (ctx.cluster.idle_nodes(c) == 0) continue;
      take_from_chassis(ctx, c, count, out);
      if (static_cast<std::int32_t>(out.size()) >= count) return out;
    }
    return std::nullopt;
  }

  std::string name() const override { return "linear"; }
};

class SpreadSelector final : public NodeSelector {
 public:
  std::optional<std::vector<cluster::NodeId>> select(const SelectionContext& ctx,
                                                     std::int32_t count) override {
    const cluster::Topology& topo = ctx.cluster.topology();
    std::vector<cluster::NodeId> out;
    out.reserve(static_cast<std::size_t>(count));
    // Round-robin: index i within chassis, sweeping all chassis, so
    // allocations scatter as widely as possible (ablation baseline). Fully
    // occupied chassis are skipped via the idle index.
    for (std::int32_t i = 0; i < topo.nodes_per_chassis(); ++i) {
      for (cluster::ChassisId c = 0; c < topo.total_chassis(); ++c) {
        if (ctx.cluster.idle_nodes(c) == 0) continue;
        cluster::NodeId node = topo.first_node_of_chassis(c) + i;
        if (node_available(ctx, node)) {
          out.push_back(node);
          if (static_cast<std::int32_t>(out.size()) >= count) return out;
        }
      }
    }
    return std::nullopt;
  }

  std::string name() const override { return "spread"; }
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
