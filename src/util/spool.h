// Spool-directory primitives for the distributed sweep (src/dist/): atomic
// publication and atomic claiming of work files on a filesystem shared by
// every worker — a local directory for same-machine fleets, NFS or similar
// for multi-machine ones.
//
// The protocol needs exactly two filesystem guarantees, both POSIX:
//   * rename(2) within one directory tree is atomic — a file either fully
//     appears under its final name or not at all (write_file_atomic), and
//     exactly one renamer wins when several race for the same source
//     (claim_file).
//   * readdir never shows a half-written file published via
//     write-temp-then-rename.
// Everything above that (shard layout, record formats, resubmission) lives
// in dist::run_distributed and dist::run_worker_spool.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace ps::util {

/// mkdir -p. Throws std::runtime_error on failure (EEXIST is success).
void ensure_dir(const std::string& path);

/// Reads a whole file. Throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// Publishes `content` at `path` atomically: writes `path.tmp.<pid>`,
/// fsyncs, renames, then fsyncs the parent directory — on a journaled FS
/// the rename itself is not durable until the directory metadata reaches
/// disk, and a crash in that window would silently lose the published
/// name. Readers listing the directory never observe a partial file.
/// Throws std::runtime_error on I/O failure. `durable = false` skips both
/// fsyncs — atomicity for live readers is kept, crash durability is not;
/// only for benchmarks, heartbeats and other throwaway data whose timing
/// must not ride the disk's sync latency.
void write_file_atomic(const std::string& path, const std::string& content,
                       bool durable = true);

/// Names (not paths) of regular files in `dir` ending with `suffix`,
/// sorted — deterministic iteration for every worker. Missing directory is
/// an error; an empty one returns {}.
std::vector<std::string> list_files(const std::string& dir,
                                    const std::string& suffix = "");

/// Tunables of the claim path. The defaults reproduce the historical
/// hard-coded behavior (5 retries, 1 ms doubling backoff, durable); the
/// live-service ingest loop and the chaos tests pass their own — a local
/// spool polled hundreds of times per second has no business sleeping
/// 63 ms on a transient errno sized for NFS.
struct SpoolOptions {
  /// Fsync the destination's parent directory after the rename so a crash
  /// cannot resurrect the claim under its old name; false only for
  /// timing-sensitive benchmarks and heartbeat-grade data.
  bool durable = true;
  /// Retries after a transient errno (EBUSY, ESTALE, EAGAIN) before the
  /// claim fails loudly. 0 = fail on the first transient error.
  int claim_retries = 5;
  /// First retry sleep; doubles per retry up to claim_backoff_max_ms.
  std::int64_t claim_backoff_initial_ms = 1;
  std::int64_t claim_backoff_max_ms = 32;
};

/// The claim backoff schedule `options` produces: one sleep per retry,
/// doubling from claim_backoff_initial_ms and capped at
/// claim_backoff_max_ms. claim_file sleeps through exactly this schedule;
/// it is exposed so tests can pin it without synthesizing EBUSY on a real
/// filesystem.
std::vector<std::int64_t> spool_retry_delays_ms(const SpoolOptions& options);

/// Atomically claims `from` by renaming it to `to`. Returns false when the
/// file vanished first (another claimer won — the expected contention
/// outcome). Transient networked-filesystem errors (EBUSY, ESTALE, EAGAIN)
/// are retried per `options` before failing; any other error throws.
bool claim_file(const std::string& from, const std::string& to,
                const SpoolOptions& options);
/// Compatibility overload: default retry schedule, explicit durability.
bool claim_file(const std::string& from, const std::string& to,
                bool durable = true);

/// Atomically retires `from` into an archive location `to` (the serve tier's
/// write-ahead journal). Same contract as claim_file: returns false when the
/// source vanished first — for a journal that means another actor (or an
/// earlier generation of this daemon) already retired it, which callers must
/// classify as already-journaled, not as a fault. Durable by default: the
/// destination's parent directory is fsynced so the journal entry survives
/// SIGKILL once retire_file returns.
bool retire_file(const std::string& from, const std::string& to,
                 bool durable = true);

/// True iff the path names an existing file or directory.
bool path_exists(const std::string& path);

/// Deletes one file; missing is fine.
void remove_file(const std::string& path);

/// Recursive delete (the driver's end-of-run spool cleanup).
void remove_tree(const std::string& path);

/// A fresh private directory under $TMPDIR (mkdtemp). Throws on failure.
std::string make_temp_dir(const std::string& prefix);

}  // namespace ps::util
