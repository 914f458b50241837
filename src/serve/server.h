// The ps-serve daemon: an online RJMS front door over the deterministic
// replay engine (docs/ARCHITECTURE.md, "Live service").
//
// Two clocks, strictly separated:
//   * The **simulation clock** is the deterministic event clock of a
//     core::Replay — the same wiring run_scenario drives: same cluster,
//     same controller, same powercap manager, same SubmissionPump. The
//     serve loop only ever advances it to watermarks the ingest layer has
//     committed, so a live replay fires exactly the event sequence the
//     offline replay of the same jobs would (the determinism fence of
//     tests/serve_determinism_test.cc).
//   * The **wall clock** drives everything else: inbox polling, status
//     publication, stats ticks, latency measurement, and — in wall-clock
//     mode — the pace at which the simulation clock is allowed to chase
//     `accel` times real time.
//
// Threading: one ingest thread claims spool documents and feeds a bounded
// queue; the serve thread drains the queue, orders each client's stream by
// its embedded sequence number, pushes jobs into the LiveJobSource,
// commits watermarks, and runs the simulator. The simulator and every
// core/ object are touched by the serve thread only; the threads share
// one `Shared` whose `TenantBook` owns all tenant state (serve/ingest.h).
//
// Backpressure: a full queue stops the ingest thread from claiming (the
// inbox is the overflow buffer — durable, unbounded, nothing is ever
// dropped) and flips `accepting` off in the published status document;
// clients see it (or the inbox high-water) and back off with retries.
//
// Durability: every claimed document is retired into a write-ahead journal
// before its jobs can reach the pipeline, sealed checkpoints periodically
// compact the journal, and `--recover` deterministically rebuilds the
// admitted history after SIGKILL — byte-identical final fingerprint
// (serve/journal.h, docs/ARCHITECTURE.md "Crash recovery").
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/experiment.h"
#include "obs/registry.h"
#include "serve/fair.h"
#include "util/fault.h"
#include "util/stats.h"

namespace ps::serve {

/// The daemon's chaos sites (util/fault.h). attempt = the daemon
/// generation (bumped on every start), so max_attempt bounds kills across
/// recoveries the way it bounds sweep retries: a storming plan always lets
/// some generation finish. key = the claim ordinal for the ingest sites,
/// the checkpoint seq for the checkpoint sites, the serve-loop iteration
/// for stall_drain. Each value is the site's draw number.
enum class ServeFault : std::uint8_t {
  DieAfterClaim = 5,        ///< SIGKILL right after journaling a claimed doc
  DieBeforeCheckpoint = 6,  ///< SIGKILL before the checkpoint is written
  TornCheckpoint = 7,       ///< truncated checkpoint under the final name, then die
  DieAfterCheckpoint = 8,   ///< SIGKILL after the checkpoint, before the prune
  StallIngest = 9,          ///< ingest thread naps (slow disk / NFS stall)
  StallDrain = 15,          ///< serve loop naps (CPU-starved or swapped daemon)
};

inline constexpr util::FaultSiteName<ServeFault> kServeFaultSites[] = {
    {"die_after_claim", ServeFault::DieAfterClaim},
    {"die_before_checkpoint", ServeFault::DieBeforeCheckpoint},
    {"torn_checkpoint", ServeFault::TornCheckpoint},
    {"die_after_checkpoint", ServeFault::DieAfterCheckpoint},
    {"stall_ingest", ServeFault::StallIngest},
    {"stall_drain", ServeFault::StallDrain},
};

using ServeFaultPlan = util::FaultPlan<ServeFault, kServeFaultSites>;

enum class Mode {
  /// Deterministic replay: the simulation clock advances exactly to the
  /// committed ingestion watermark, as fast as clients publish. Replays of
  /// the same jobs are bit-identical to offline run_scenario.
  kDeterministic,
  /// Service mode: the simulation clock chases wall time times `accel`;
  /// documents that arrive after their simulation time has passed are
  /// admitted late (submit times clamped just above the clock), like a
  /// real RJMS that cannot admit in the past.
  kWallClock,
};

struct ServeOptions {
  /// Spool root; inbox/accepted/control subdirectories are created.
  std::string spool;
  /// Number of clients that will publish hellos; the server waits for all
  /// of them before wiring caps and starting the clock.
  int expect_clients = 1;
  Mode mode = Mode::kDeterministic;
  /// Wall-clock mode: simulation milliseconds per wall millisecond.
  double accel = 1000.0;

  /// Scenario shape (racks, powercap policy and windows, controller,
  /// submit_chunk). Workload fields (trace_jobs / profile / job_source)
  /// and horizon are ignored: the workload is what clients publish and
  /// the horizon comes from their hellos (max last_submit + one drain
  /// hour), mirroring run_scenario's hint-derived horizon.
  core::ScenarioConfig scenario;

  /// Ingest queue capacity in documents; a full queue is the backpressure
  /// trigger, never a drop.
  std::size_t queue_capacity = 256;
  /// Inbox backlog (files) above which status flips to accepting=false.
  std::size_t inbox_high_water = 512;

  std::int64_t stats_interval_ms = 2000;///< stderr progress tick; 0 = off
  /// Publish a sealed obs-registry snapshot into <spool>/telemetry/ every
  /// this many wall seconds (plus one final document at drain). 0 = off.
  /// Pure observation — cannot move the replay fingerprint.
  std::int64_t telemetry_seconds = 0;
  /// Abort the hello wait after this long (0 = wait forever). A missing
  /// client is a deployment bug; failing loudly beats hanging.
  std::int64_t hello_timeout_ms = 60'000;

  /// Resume from the spool's journal + checkpoints (see serve/journal.h).
  /// Required when the spool holds admission state from a previous run —
  /// starting without it on a dirty spool fails loudly, because ignoring a
  /// journal would silently lose admitted jobs.
  bool recover = false;
  /// Checkpoint cadence: write a sealed checkpoint after this many newly
  /// admitted jobs (0 = never by job count) ...
  std::int64_t checkpoint_jobs = 5000;
  /// ... or after this much simulated time (seconds; 0 = never by time).
  /// Both zero disables checkpointing: the journal grows unboundedly and
  /// recovery replays it all.
  std::int64_t checkpoint_seconds = 86'400;
  /// Fsync each journaled document (and the journal directory) at retire
  /// time. Off by default: the atomic rename already survives SIGKILL of
  /// the daemon (the fenced failure mode); surviving a simultaneous kernel
  /// crash costs one fsync per document on the ingest path.
  bool journal_fsync = false;

  /// Multi-tenant admission quotas (serve/fair.h): deficit-round-robin
  /// quantum, quota window length, and jobs-per-window cap. Defaults are
  /// fair scheduling with an unlimited window — pure DRR.
  TenantQuotaOptions quotas;
  /// Documents a tenant may hold claimed-but-not-yet-admitted before the
  /// ingest thread stops claiming for it (its flood stays in the durable
  /// inbox instead of our memory). 0 = unlimited.
  std::uint64_t tenant_inflight_docs = 256;
  /// Poison documents (parse failures, protocol violations) a tenant may
  /// accumulate before it is abandoned: its pending documents quarantine,
  /// its streams stop counting toward completion, and further documents
  /// go straight to quarantine. 0 = never abandon.
  std::uint64_t poison_threshold = 8;
  /// Post-recovery slow start: the first quota window after a recovery
  /// admits at most this many claimed documents, doubling each window
  /// until uncapped — a restarted daemon is not re-stampeded by the
  /// backlog its outage built up. 0 = off. Only active when recovering a
  /// dirty spool.
  std::uint64_t slow_start_docs = 32;

  /// Daemon fault injection (the sites above), set by --faults only.
  /// Inert by default.
  ServeFaultPlan faults;

  /// Graceful-shutdown flag, typically flipped by a SIGTERM handler: stop
  /// claiming new documents, finish simulating everything already
  /// admitted, emit the final report.
  const std::atomic<bool>* stop = nullptr;
};

struct ServeReport {
  core::ScenarioResult result;   ///< same shape run_scenario returns
  std::uint64_t fingerprint = 0; ///< core::fingerprint(result)
  sim::Time horizon = 0;         ///< replay horizon derived from hellos

  int clients = 0;
  std::uint64_t jobs_declared = 0;  ///< sum of hello job counts
  std::uint64_t admitted = 0;       ///< jobs handed to the controller
  std::uint64_t clamped = 0;  ///< late jobs re-timed (wall mode; cumulative
                              ///< across generations via the checkpoint)
  std::size_t peak_queue = 0;

  /// Admission latency: client publish (CLOCK_MONOTONIC) to the serve
  /// loop advancing the simulation past the document's last submit time.
  util::QuantileSketch latency{0.01};

  std::int64_t wall_ms = 0;        ///< hello-complete to drain-complete
  double jobs_per_sec = 0.0;       ///< admitted / wall seconds
  bool interrupted = false;        ///< stopped via the shutdown flag

  std::uint64_t generation = 0;    ///< daemon epoch (0 = first start)

  /// The run's window onto the registry's `serve.*` counters (documents,
  /// backpressure stalls, recovery, checkpoints, quarantine, quotas),
  /// captured when the run starts. format_report prints each as its delta;
  /// read it before another run in this process counts into them.
  obs::CounterBaseline counters;
};

/// Runs the daemon to completion: waits for hellos, replays the published
/// workload, drains, and returns the report. Throws on protocol
/// violations (duplicate clients, watermark regressions, checksum
/// failures) — a lying client must never silently skew the replay.
ServeReport run_server(const ServeOptions& options);

/// The report as deterministic `key value` lines (serde style) — what
/// ps-serve prints on stdout and the tests parse. The fingerprint is the
/// hex64 token dist uses everywhere.
std::string format_report(const ServeReport& report);

}  // namespace ps::serve
