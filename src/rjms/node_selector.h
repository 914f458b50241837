// Node selection policies (second scheduling phase of paper §IV-A).
//
// Selection prefers filling partially used chassis so that whole chassis
// and racks stay empty — keeping the offline algorithm's grouped-shutdown
// (power bonus) opportunities alive. A spread selector exists for the
// ablation benches.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "rjms/reservation.h"

namespace ps::rjms {

/// What a selector reads: the cluster's node states and the nodes that
/// reservations block for the job's span [now, now + pessimistic walltime
/// + transition margins). Controller::plan_start builds the set once per
/// span; tests and benches build theirs with BlockedSet::ensure.
struct SelectionContext {
  const cluster::Cluster& cluster;
  const BlockedSet& blocked;
};

/// A node is selectable iff it is Idle and no Maintenance/SwitchOff
/// reservation blocks the job span.
bool node_available(const SelectionContext& ctx, cluster::NodeId node);

class NodeSelector {
 public:
  virtual ~NodeSelector() = default;
  /// Picks exactly `count` available nodes or returns nullopt.
  virtual std::optional<std::vector<cluster::NodeId>> select(const SelectionContext& ctx,
                                                             std::int32_t count) = 0;
  virtual std::string name() const = 0;
};

enum class SelectorKind {
  Packing,  ///< fill most-used chassis first (default; bonus-friendly)
  Linear,   ///< first fit by ascending node id
  Spread,   ///< round-robin across chassis (bonus-hostile; ablation)
};

std::unique_ptr<NodeSelector> make_selector(SelectorKind kind);

}  // namespace ps::rjms
