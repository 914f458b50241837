// Node selection policies (second scheduling phase of paper §IV-A).
//
// Selection prefers filling partially used chassis so that whole chassis
// and racks stay empty — keeping the offline algorithm's grouped-shutdown
// (power bonus) opportunities alive. A spread selector exists for the
// ablation benches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "rjms/reservation.h"
#include "util/check.h"

namespace ps::rjms {

/// What a selector reads: the cluster's node states and the nodes that
/// reservations block for the job's span [now, now + pessimistic walltime
/// + transition margins). Controller::plan_start builds the set once per
/// span; tests and benches build theirs with BlockedSet::ensure. A node is
/// available iff it is Idle and not blocked: per 64-node window of the
/// node-bit layout, `cluster.idle_window & ~blocked.window`.
struct SelectionContext {
  const cluster::Cluster& cluster;
  const BlockedSet& blocked;
};

class NodeSelector {
 public:
  virtual ~NodeSelector() = default;

  /// Picks exactly `count` (>= 1) available nodes into `out`, which it
  /// clears first, and returns true; returns false, with `out` holding a
  /// partial pick, when fewer are available. `out` is the caller's buffer,
  /// so a selection allocates only when it grows. `ctx.blocked` must span
  /// the cluster's nodes.
  bool select(const SelectionContext& ctx, std::int32_t count,
              std::vector<cluster::NodeId>& out) {
    PS_CHECK_MSG(count >= 1, "selection of no nodes");
    PS_CHECK_MSG(ctx.blocked.size() == ctx.cluster.topology().total_nodes(),
                 "blocked set sized for another machine");
    out.clear();
    return pick(ctx, count, out);
  }

  virtual std::string name() const = 0;

 private:
  /// select() after its checks, with `out` empty.
  virtual bool pick(const SelectionContext& ctx, std::int32_t count,
                    std::vector<cluster::NodeId>& out) = 0;
};

enum class SelectorKind {
  Packing,  ///< fill most-used chassis first (default; bonus-friendly)
  Linear,   ///< first fit by ascending node id
  Spread,   ///< round-robin across chassis (bonus-hostile; ablation)
};

std::unique_ptr<NodeSelector> make_selector(SelectorKind kind);

}  // namespace ps::rjms
