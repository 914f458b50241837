// Distributed sweep driver (the `ps-sweep drive` mode and the
// `--distributed N` path of the grid binaries).
//
// The driver is the process-level analogue of core::SweepEngine::run with
// the identical output contract: results[i] belongs to cells[i], and the
// merged vector is bit-identical to an in-process sweep of the same grid —
// fenced end-to-end by per-cell fingerprints (core/fingerprint.h) that the
// worker computes before serialization and the driver recomputes after
// parsing, plus an optional golden manifest (e.g. the committed Fig-8
// digests).
//
// Execution model: the grid is partitioned into contiguous shards written
// to a spool directory; worker *processes* (the same ps-sweep binary)
// claim shards by atomic rename and publish result files. Machine
// distribution is the same protocol with the spool on a shared filesystem
// and the workers launched remotely — the driver's merge never cares where
// a record was computed.
//
// Failure model (docs/ARCHITECTURE.md, "Failure model"): the driver polls
// the spool mid-wave instead of blocking on worker exits, so every failure
// mode short of losing the spool filesystem is detected and bounded:
//
//   * **dead worker** — a local worker that exited leaving its claim is
//     reclaimed immediately (no lease wait).
//   * **hung worker** — every claim carries a heartbeat file its holder
//     renews; a heartbeat stale past `lease_timeout_ms` marks the holder
//     hung, the driver kills it (when local) and reclaims the shard *while
//     the wave is still running*.
//   * **zombie worker** — reclaiming bumps the shard's fencing token; a
//     reclaimed holder that wakes up and publishes late produces a
//     stale-token file the driver discards, never a merge race.
//   * **torn / corrupt documents** — every spool document is checksummed
//     (dist/protocol.h); a file that fails its checksum or parse is a
//     retriable worker fault: the shard is resubmitted and the file
//     counted in `corrupt_documents`, not a driver crash.
//   * **killed driver** — `resume = true` re-validates every published
//     result in the spool and recomputes only missing or invalid shards,
//     a sealed-but-inconsistent file included (fatal on the live path).
//     A checksummed grid.meta pins the spool to its grid.
//
// Each failure consumes one of the shard's `max_attempts`; exhaustion
// either throws (default) or, with `quarantine = true`, completes the rest
// of the grid and reports the quarantined cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/protocol.h"

namespace ps::dist {

struct DriverOptions {
  /// Local worker processes to keep running while work is pending.
  std::size_t workers = 2;
  /// Shard count; 0 = 2x workers (bounded by the cell count) so the claim
  /// queue stays long enough for work stealing to balance uneven cells.
  std::size_t shards = 0;
  /// Spool directory; empty = a private temp dir, removed on success
  /// (unless keep_spool). A caller-provided spool is never removed.
  std::string spool_dir;
  /// Worker executable; empty = the `ps-sweep` binary next to the current
  /// executable (PS_SWEEP_WORKER_BIN environment override wins).
  std::string worker_command;
  /// Extra argv appended to every worker (test hooks, fault plans).
  std::vector<std::string> worker_args;
  /// Attempts per shard (first run + resubmissions) before the driver
  /// gives up — a deterministic cell failure must not loop.
  std::size_t max_attempts = 3;
  bool keep_spool = false;
  /// Optional golden manifest: index-ordered expected fingerprints for the
  /// whole grid. Non-empty = every merged cell is verified against it.
  std::vector<std::uint64_t> golden;

  /// Heartbeat renewal period passed down to workers.
  std::int64_t heartbeat_interval_ms = 500;
  /// A claim whose heartbeat has not advanced for this long is a hung
  /// holder: killed (when local) and reclaimed under a new fencing token.
  /// Clamped to at least 2x the heartbeat interval.
  std::int64_t lease_timeout_ms = 10000;
  /// Driver poll cadence over the spool (results, leases, worker exits).
  std::int64_t poll_interval_ms = 25;
  /// On attempt exhaustion: false = throw (default); true = quarantine the
  /// shard, finish the rest of the grid, and report the missing cells in
  /// DriverReport::quarantined_cells with complete = false.
  bool quarantine = false;
  /// Adopt valid published results already in spool_dir (which must be
  /// set) and recompute only what is missing — the killed-driver path.
  bool resume = false;
};

struct DriverReport {
  /// results[i] belongs to cells[i] — the SweepEngine contract. Cells of a
  /// quarantined shard are default-constructed with fingerprint 0.
  std::vector<core::ScenarioResult> results;
  /// Driver-side fingerprints, index-ordered (a manifest for future runs).
  std::vector<std::uint64_t> fingerprints;
  std::size_t shard_count = 0;
  std::size_t workers_spawned = 0;
  /// Shards returned to the pool after a worker died, failed, or timed out
  /// mid-shard (every reclaim and corrupt document counts here too).
  std::size_t resubmitted_shards = 0;
  /// Hung holders reclaimed via a stale heartbeat lease.
  std::size_t reclaimed_leases = 0;
  /// Stale-fencing-token results files discarded (zombie publishes).
  std::size_t fenced_publishes = 0;
  /// Results files rejected by checksum/parse and resubmitted.
  std::size_t corrupt_documents = 0;
  /// Cells adopted from a prior run's spool (resume).
  std::size_t resumed_cells = 0;
  /// Grid indices that exhausted max_attempts under quarantine.
  std::vector<std::uint64_t> quarantined_cells;
  /// False iff any cell was quarantined.
  bool complete = true;
};

/// Runs the grid across local worker processes and merges index-ordered.
/// Throws std::runtime_error on unrecoverable failures: a shard exceeding
/// max_attempts (unless quarantine), a fingerprint mismatch on a
/// checksum-valid document (serde infidelity or version skew — retrying a
/// deterministic failure would loop), or a golden-manifest divergence.
DriverReport run_distributed(const std::vector<core::ScenarioConfig>& cells,
                             const DriverOptions& options = {});

/// The default worker command: $PS_SWEEP_WORKER_BIN if set, else the
/// `ps-sweep` binary in the current executable's directory, else plain
/// "ps-sweep" (PATH lookup).
std::string default_worker_command();

}  // namespace ps::dist
