// Spool documents of the live service (ps-serve / ps-load), built on the
// dist serde blocks and sealed like every other spool document — torn or
// bit-rotted files fail loudly at parse time, never silently corrupt the
// admission stream.
//
//   * **hello** — one per client, published before any submission: the
//     client's name, how many jobs it will publish, and the greatest
//     submit time it will ever send. The server waits for the expected
//     client count before wiring caps and starting the clock — the hellos
//     bound the replay horizon exactly like last_submit_hint() bounds an
//     offline replay.
//   * **submission** — a batch of job records (the dist serde job rows —
//     one wire format for job records everywhere) plus the client's
//     sequence number, its *watermark* ("every job of mine with
//     submit_time <= w is in documents up to this seq"), an eof flag on
//     the final document, and the publish wall timestamp (CLOCK_MONOTONIC,
//     valid across processes on one machine) the server measures admission
//     latency against.
//   * **status** — published by the server, polled by clients: the
//     backpressure gate (`accepting`), bumped `seq` as a liveness signal,
//     and progress counters. When `accepting` is false clients back off
//     and retry — submissions are never dropped, they just wait in the
//     client until the server drains its backlog below the high-water.
//
// Spool layout:
//   <spool>/inbox/<client>.hello          client hello
//   <spool>/inbox/<client>-<seq08>.sub    submission batch
//   <spool>/accepted/...                  server-claimed (transient)
//   <spool>/control/status                server status, atomically replaced
//
// Per-client submission file names embed a zero-padded sequence so a
// sorted directory listing yields each client's documents in publish
// order; the server additionally reorders by the embedded seq and defers
// gaps, so even a filesystem that lists fresh entries out of order cannot
// reorder a client's stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "workload/job_request.h"

namespace ps::serve {

struct Hello {
  std::string client;
  std::uint64_t jobs = 0;        ///< total jobs this client will publish
  sim::Time last_submit = 0;     ///< greatest submit_time it will send
  /// Admission-quota tenant this client bills against (valid_client_name
  /// token; defaults to the client name — every client its own tenant).
  /// Multiple clients may share one tenant and then share its quotas.
  std::string tenant;
  /// Deficit-round-robin weight: a tenant with weight 3 is admitted ~3x
  /// the jobs per admit cycle of a weight-1 tenant under contention.
  /// Clamped to [1, kMaxTenantWeight] at parse time.
  std::uint64_t weight = 1;
};

inline constexpr std::uint64_t kMaxTenantWeight = 1000;

struct Submission {
  std::string client;
  std::uint64_t seq = 0;         ///< contiguous from 0 per client
  sim::Time watermark = -1;      ///< all jobs <= this are in docs <= seq
  bool eof = false;              ///< final document of this client
  std::int64_t publish_ns = 0;   ///< CLOCK_MONOTONIC at publish
  std::vector<workload::JobRequest> jobs;
};

/// Per-tenant quota state advertised in the status document so
/// well-behaved clients self-throttle before the server has to defer them.
struct TenantStatus {
  std::string tenant;
  std::uint64_t weight = 1;
  std::uint64_t inflight_docs = 0;   ///< claimed but not yet admitted
  std::int64_t window_jobs_left = -1;///< jobs left this quota window; -1 = unlimited
  bool over_quota = false;           ///< admission deferred this window
  bool poisoned = false;             ///< tenant abandoned (poison threshold)
};

struct Status {
  bool accepting = true;         ///< backpressure gate
  std::uint64_t seq = 0;         ///< bumps every write (client liveness probe)
  sim::Time sim_time = 0;
  std::uint64_t admitted = 0;    ///< jobs handed to the controller so far
  bool slow_start = false;       ///< post-recovery admission ramp active
  std::vector<TenantStatus> tenants;
};

std::string serialize_hello(const Hello& hello);
Hello parse_hello(std::string_view text);

std::string serialize_submission(const Submission& submission);
Submission parse_submission(std::string_view text);

/// Field walk of the submission block (util/wire.h) — the same bytes as
/// the standalone wire document above, embeddable inside a larger document
/// (the journal segment documents a checkpoint compacts retired
/// submissions into).
template <class Io, class T>
void serve_submission(Io& io, T& submission);

std::string serialize_status(const Status& status);
Status parse_status(std::string_view text);

// --- spool layout ------------------------------------------------------------

std::string inbox_dir(const std::string& spool);
std::string accepted_dir(const std::string& spool);
std::string status_path(const std::string& spool);

/// Client names travel inside file names and serde tokens: letters,
/// digits, '.', '_', '-' only (checked loudly at serialize/publish time).
bool valid_client_name(std::string_view name);

std::string hello_file_name(std::string_view client);
std::string submission_file_name(std::string_view client, std::uint64_t seq);

/// Decoded inbox file name. Hello documents carry no seq.
struct InboxName {
  std::string client;
  std::uint64_t seq = 0;
  bool hello = false;
};
/// nullopt for foreign files (tmp litter etc.).
std::optional<InboxName> parse_inbox_name(std::string_view name);

/// CLOCK_MONOTONIC in nanoseconds — comparable across processes on one
/// machine, immune to wall-clock steps; the latency clock of the service.
std::int64_t monotonic_ns();

}  // namespace ps::serve
