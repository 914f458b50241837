// Distributed sweep worker (the `ps-sweep worker` mode).
//
// A worker is a stateless cell executor: it loops over a spool directory
// (util/spool.h), claims a shard file by atomic rename, runs each cell
// through the exact same single-threaded, bit-deterministic
// core::run_scenario the in-process SweepEngine uses, publishes the
// (index, fingerprint, result) records atomically, and repeats until no
// pending shards remain. Several workers on the same spool never
// duplicate work (rename wins once). While a shard runs, a background
// thread renews the shard's heartbeat file every `heartbeat_interval_ms`
// with a monotonic sequence — the driver's lease: a heartbeat stale past
// the lease timeout marks the holder hung (not just dead) and the shard is
// reclaimed under a new fencing token, so this worker's eventual late
// publish is discarded. A worker that dies mid-shard leaves its claim
// stranded for the driver to detect immediately.
//
// Fault injection hooks the spool loop at the sweep sites below; an inert
// plan (the default) costs one branch per site.
#pragma once

#include <cstdint>
#include <string>

#include "dist/protocol.h"
#include "util/fault.h"

namespace ps::dist {

/// The sweep tier's chaos sites (util/fault.h). key = shard id, attempt =
/// the claim's fencing token. Each value is the site's draw number.
enum class SweepFault : std::uint8_t {
  DieBeforePublish = 0,  ///< SIGKILL after computing, before publishing
  HangAfterClaim = 1,    ///< freeze after claiming, heartbeat included
  StallHeartbeat = 2,    ///< keep working, stop renewing the heartbeat
  TornPublish = 3,       ///< half the results under the final name, then die
  CorruptResult = 4,     ///< results published with one byte flipped
};

inline constexpr util::FaultSiteName<SweepFault> kSweepFaultSites[] = {
    {"die_before_publish", SweepFault::DieBeforePublish},
    {"hang_after_claim", SweepFault::HangAfterClaim},
    {"stall_heartbeat", SweepFault::StallHeartbeat},
    {"torn_publish", SweepFault::TornPublish},
    {"corrupt_result", SweepFault::CorruptResult},
};

using SweepFaultPlan = util::FaultPlan<SweepFault, kSweepFaultSites>;

struct WorkerOptions {
  std::string spool_dir;
  /// Heartbeat renewal period while a shard runs. The driver passes its
  /// own setting down so lease arithmetic is consistent fleet-wide.
  std::int64_t heartbeat_interval_ms = 500;
  /// Deterministic chaos schedule (inert by default). Parsed from the
  /// --faults flag or $PS_SWEEP_FAULTS by the CLI.
  SweepFaultPlan faults;
};

/// Runs every cell of a shard; records are in shard order.
ShardResults run_shard(const Shard& shard);

/// Spool loop; returns a process exit code (0 = clean, including "nothing
/// left to claim"). Throws only on programming errors; operational
/// failures (unparseable shard, I/O) propagate as exceptions to the CLI,
/// which exits nonzero — the driver then resubmits the stranded claim.
int run_worker_spool(const WorkerOptions& options);

}  // namespace ps::dist
