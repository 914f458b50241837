// Reference node selection, computed the direct way: one availability
// probe per node (Idle in the cluster, and not blocked by the reference
// scan of the book), with the selectors' chassis and node orders written
// as plain loops over node ids. The shipping selectors answer through
// per-chassis `idle & ~blocked` words; tests compare their picks to these.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "reservation_reference.h"
#include "rjms/node_selector.h"

namespace ps::rjms {

/// available[n] iff node n is Idle and no reservation of `book` blocks a
/// job spanning [from, to) on it.
inline std::vector<bool> reference_available(const cluster::Cluster& cl,
                                             const ReservationBook& book, sim::Time from,
                                             sim::Time to) {
  std::vector<bool> available(static_cast<std::size_t>(cl.topology().total_nodes()));
  for (cluster::NodeId n = 0; n < cl.topology().total_nodes(); ++n) {
    available[static_cast<std::size_t>(n)] = cl.state(n) == cluster::NodeState::Idle;
  }
  for (cluster::NodeId n : scanned_blocked_nodes(book, from, to)) {
    if (cl.topology().valid_node(n)) available[static_cast<std::size_t>(n)] = false;
  }
  return available;
}

/// The first `count` nodes of `order` that are available; nullopt when
/// fewer are.
template <class Order>
std::optional<std::vector<cluster::NodeId>> reference_pick(const std::vector<bool>& available,
                                                          std::int32_t count, Order&& order) {
  std::vector<cluster::NodeId> out;
  order([&](cluster::NodeId n) {
    if (available[static_cast<std::size_t>(n)]) out.push_back(n);
    return static_cast<std::int32_t>(out.size()) == count;
  });
  if (static_cast<std::int32_t>(out.size()) < count) return std::nullopt;
  return out;
}

/// What `kind` picks: Packing walks chassis by (idle count ascending, id
/// ascending), skipping chassis with no Idle node, and nodes ascending
/// within each; Linear walks node ids ascending; Spread walks index i
/// within chassis, then chassis ascending.
inline std::optional<std::vector<cluster::NodeId>> reference_select(
    SelectorKind kind, const cluster::Cluster& cl, const std::vector<bool>& available,
    std::int32_t count) {
  const cluster::Topology& topo = cl.topology();
  const std::int32_t per = topo.nodes_per_chassis();
  switch (kind) {
    case SelectorKind::Packing:
      return reference_pick(available, count, [&](auto&& visit) {
        for (std::int32_t idle = 1; idle <= per; ++idle) {
          for (cluster::ChassisId c = 0; c < topo.total_chassis(); ++c) {
            if (cl.idle_nodes(c) != idle) continue;
            for (std::int32_t i = 0; i < per; ++i) {
              if (visit(c * per + i)) return;
            }
          }
        }
      });
    case SelectorKind::Linear:
      return reference_pick(available, count, [&](auto&& visit) {
        for (cluster::NodeId n = 0; n < topo.total_nodes(); ++n) {
          if (visit(n)) return;
        }
      });
    case SelectorKind::Spread:
      return reference_pick(available, count, [&](auto&& visit) {
        for (std::int32_t i = 0; i < per; ++i) {
          for (cluster::ChassisId c = 0; c < topo.total_chassis(); ++c) {
            if (visit(c * per + i)) return;
          }
        }
      });
  }
  return std::nullopt;
}

}  // namespace ps::rjms
