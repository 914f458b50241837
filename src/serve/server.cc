#include "serve/server.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <queue>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <cstdio>

#include <unistd.h>

#include "core/fingerprint.h"
#include "core/replay.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "dist/fault.h"
#include "dist/serde.h"
#include "serve/fair.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/quarantine.h"
#include "sim/simulator.h"
#include "util/bounded_queue.h"
#include "util/check.h"
#include "util/spool.h"
#include "util/strings.h"
#include "workload/live_source.h"

namespace ps::serve {

namespace {

/// Same SIGKILL emulation as the dist chaos worker (dist/worker.cc): the
/// injected crash must be indistinguishable from `kill -9` — no stack
/// unwinding, no atexit, no flushed buffers.
[[noreturn]] void emulate_sigkill() { ::_exit(137); }

/// One claimed inbox document, either kind.
struct IngestDoc {
  bool is_hello = false;
  Hello hello;
  Submission submission;
};

/// State the ingest thread shares with the serve loop.
struct Shared {
  util::BoundedQueue<IngestDoc> queue;
  std::atomic<bool> ingest_stop{false};
  std::atomic<bool> accepting{true};
  std::atomic<std::int64_t> sim_time{0};
  std::atomic<std::uint64_t> admitted{0};
  /// Registry-homed ingest counters (obs/registry.h): the report's
  /// backpressure figure is the run's delta of `stalls`; the claim and
  /// journal counters are telemetry-only.
  obs::Counter& stalls = obs::Registry::global().counter(
      "serve.backpressure_stalls");
  obs::Counter& ingest_claims =
      obs::Registry::global().counter("serve.ingest.claims");
  obs::Counter& ingest_journaled =
      obs::Registry::global().counter("serve.ingest.journaled");
  /// Overload-hardening counters (serve/quarantine.h, serve/fair.h).
  obs::Counter& q_docs =
      obs::Registry::global().counter("serve.quarantine.docs");
  obs::Counter& q_jobs =
      obs::Registry::global().counter("serve.quarantine.jobs");
  obs::Counter& q_poisoned =
      obs::Registry::global().counter("serve.quarantine.poisoned_tenants");
  obs::Counter& inflight_holds =
      obs::Registry::global().counter("serve.quota.inflight_holds");
  obs::Counter& slow_holds =
      obs::Registry::global().counter("serve.slow_start.holds");
  /// Daemon-lifetime claim ordinal — the fault-site id of the ingest sites,
  /// so a chaos plan can target "the Nth claim of any generation".
  std::atomic<std::uint64_t> claims{0};
  /// Names quarantined documents uniquely within a generation.
  std::atomic<std::uint64_t> quarantine_ordinal{0};
  /// Post-recovery slow start still ramping (advertised in the status
  /// document so well-behaved clients hold their floods back).
  std::atomic<bool> slow_start{false};
  /// Daemon generation (epoch counter) — the fault-site `attempt`.
  std::uint64_t generation = 0;

  /// Cross-thread tenant state. The ingest thread consults quotas and the
  /// poison set *before* claiming; the serve thread owns every decision
  /// and refreshes the status rows. Critical sections are a handful of
  /// map operations — never I/O.
  std::mutex tenant_mutex;
  std::map<std::string, std::string> tenant_of;       ///< client -> tenant
  std::map<std::string, std::uint64_t> inflight;      ///< claimed, unapplied
  std::map<std::string, std::uint64_t> poison_score;  ///< poison docs seen
  std::set<std::string> poisoned;                     ///< abandoned tenants
  std::vector<TenantStatus> tenant_status;            ///< status rows

  // Set when the ingest thread dies on an exception (corrupt document,
  // I/O failure); the serve thread rethrows it as its own failure.
  std::atomic<bool> failed{false};
  std::mutex failure_mutex;
  std::string failure;

  explicit Shared(std::size_t capacity) : queue(capacity) {}
};

/// The tenant a client bills to: the hello's declaration once seen, the
/// client's own name before that (pre-hello documents are rare and the
/// default matches what the hello will almost always declare).
std::string tenant_for(Shared& shared, const std::string& client) {
  std::lock_guard<std::mutex> lock(shared.tenant_mutex);
  auto it = shared.tenant_of.find(client);
  return it == shared.tenant_of.end() ? client : it->second;
}

bool is_poisoned(Shared& shared, const std::string& tenant) {
  std::lock_guard<std::mutex> lock(shared.tenant_mutex);
  return shared.poisoned.count(tenant) > 0;
}

std::uint64_t inflight_of(Shared& shared, const std::string& tenant) {
  std::lock_guard<std::mutex> lock(shared.tenant_mutex);
  auto it = shared.inflight.find(tenant);
  return it == shared.inflight.end() ? 0 : it->second;
}

void inc_inflight(Shared& shared, const std::string& tenant) {
  std::lock_guard<std::mutex> lock(shared.tenant_mutex);
  ++shared.inflight[tenant];
}

/// Clamped at zero: documents recovered from the journal were never
/// counted in (a recovery resets the map), so their release must not
/// steal a live document's decrement.
void dec_inflight(Shared& shared, const std::string& tenant) {
  std::lock_guard<std::mutex> lock(shared.tenant_mutex);
  auto it = shared.inflight.find(tenant);
  if (it != shared.inflight.end() && it->second > 0) --it->second;
}

void bump_poison(Shared& shared, const std::string& tenant) {
  std::lock_guard<std::mutex> lock(shared.tenant_mutex);
  ++shared.poison_score[tenant];
}

/// Quarantines `src_path` (sealed reason record first — see
/// serve/quarantine.h for the ordering argument) and counts it.
void quarantine_and_count(const ServeOptions& options, Shared& shared,
                          const std::string& src_path,
                          const std::string& original_name,
                          QuarantineReason reason) {
  reason.generation = shared.generation;
  reason.wall_ns = monotonic_ns();
  quarantine_document(options.spool, src_path, original_name,
                      shared.quarantine_ordinal.fetch_add(
                          1, std::memory_order_relaxed),
                      reason);
  shared.q_docs.inc();
  shared.q_jobs.inc(reason.jobs);
}

void publish_status(const ServeOptions& options, Shared& shared,
                    std::uint64_t& status_seq) {
  Status status;
  status.accepting = shared.accepting.load(std::memory_order_relaxed);
  status.seq = ++status_seq;
  status.sim_time = shared.sim_time.load(std::memory_order_relaxed);
  status.admitted = shared.admitted.load(std::memory_order_relaxed);
  status.slow_start = shared.slow_start.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shared.tenant_mutex);
    status.tenants = shared.tenant_status;
  }
  // Heartbeat-grade data: atomic for live readers, not crash-durable.
  util::write_file_atomic(status_path(options.spool), serialize_status(status),
                          /*durable=*/false);
}

/// Ingest thread body: list -> claim -> parse -> journal -> push. A full
/// queue stops the claiming (the inbox is the durable overflow buffer);
/// nothing is ever discarded. Every claimed document is retired into the
/// write-ahead journal *before* it can be pushed — SIGKILL between any two
/// instructions leaves it recoverable from either accepted/ (claimed, not
/// yet journaled; swept into the journal at recovery) or journal/.
///
/// Overload hardening at the claim edge:
///   * submissions are claimed round-robin across clients (one per client
///     per turn) instead of in sorted listing order, so a flooding
///     client's thousand queued documents do not monopolize the claim
///     order;
///   * a tenant at its in-flight quota stops being claimed — its flood
///     stays in the durable inbox instead of our memory;
///   * a tenant marked poisoned has its documents claimed straight into
///     quarantine (evidence, not workload);
///   * documents that fail seal/parse/name validation quarantine with a
///     sealed reason record instead of killing the thread;
///   * a document whose name already exists in the journal is a duplicate
///     publish (lost-ack retry or hostile replay) — the new copy
///     quarantines so the journaled original stays byte-exact;
///   * after a dirty recovery, a slow-start gate caps claims per quota
///     window, doubling each window until uncapped.
void ingest_loop(const ServeOptions& options, Shared& shared) {
  const std::string inbox = inbox_dir(options.spool);
  const std::string accepted = accepted_dir(options.spool);
  const std::string journal = journal_dir(options.spool);
  util::SpoolOptions claim_options;
  claim_options.durable = false;  // local spool, polled at millisecond rate
  claim_options.claim_backoff_max_ms = 8;

  // Slow-start ramp state (windows are wall-clock, shared with the quota
  // window length so one knob tunes both).
  const std::int64_t window_ns =
      std::max<std::int64_t>(options.quotas.window_ms, 1) * 1'000'000;
  const std::int64_t slow_epoch_ns = monotonic_ns();
  std::int64_t slow_window = -1;
  std::uint64_t slow_allowance = 0;
  std::uint64_t slow_claimed = 0;
  constexpr std::uint64_t kSlowStartUncap = 1u << 20;

  std::uint64_t status_seq = 0;
  std::int64_t last_status_ns = 0;
  while (!shared.ingest_stop.load(std::memory_order_relaxed)) {
    std::vector<std::string> names = util::list_files(inbox);
    std::size_t backlog = 0;
    bool queue_full = false;
    bool quota_held = false;
    bool slow_held = false;

    // True while the slow-start ramp refuses further claims this window.
    auto slow_start_blocks = [&]() -> bool {
      if (!shared.slow_start.load(std::memory_order_relaxed)) return false;
      const std::int64_t widx = (monotonic_ns() - slow_epoch_ns) / window_ns;
      if (widx != slow_window) {
        slow_window = widx;
        std::uint64_t allowance = std::max<std::uint64_t>(
            options.slow_start_docs, 1);
        for (std::int64_t i = 0; i < widx && allowance < kSlowStartUncap; ++i) {
          allowance <<= 1;
        }
        slow_allowance = allowance;
        slow_claimed = 0;
        if (allowance >= kSlowStartUncap) {
          shared.slow_start.store(false, std::memory_order_relaxed);
          return false;
        }
      }
      if (slow_claimed >= slow_allowance) {
        if (!slow_held) {
          slow_held = true;
          shared.slow_holds.inc();
        }
        return true;
      }
      ++slow_claimed;
      return false;
    };

    // One claim+parse+journal+push. False = stop ingesting entirely
    // (shutdown or a closed queue).
    auto pump_doc = [&](const std::string& name,
                        const InboxName& decoded) -> bool {
      if (shared.ingest_stop.load(std::memory_order_relaxed)) return false;
      PS_TRACE_SPAN("serve.ingest.doc");
      const std::string tenant = tenant_for(shared, decoded.client);
      if (!util::claim_file(inbox + "/" + name, accepted + "/" + name,
                            claim_options)) {
        return true;  // vanished: only possible if an operator intervened
      }
      shared.ingest_claims.inc();
      const std::string src = accepted + "/" + name;
      QuarantineReason reason;
      reason.client = decoded.client;
      reason.kind = decoded.hello ? "hello" : "submission";
      reason.seq = decoded.hello ? -1 : static_cast<std::int64_t>(decoded.seq);
      if (is_poisoned(shared, tenant)) {
        reason.reason = "tenant_poisoned";
        reason.detail = "document from an abandoned tenant";
        quarantine_and_count(options, shared, src, name, reason);
        return true;
      }
      std::string text = util::read_file(src);
      IngestDoc doc;
      doc.is_hello = decoded.hello;
      try {
        if (decoded.hello) {
          doc.hello = parse_hello(text);
          if (doc.hello.client != decoded.client) {
            throw std::runtime_error("hello body does not match its file name");
          }
        } else {
          doc.submission = parse_submission(text);
          if (doc.submission.client != decoded.client ||
              doc.submission.seq != decoded.seq) {
            throw std::runtime_error(
                "submission body does not match its file name");
          }
        }
      } catch (const std::exception& e) {
        // Poison document. The seq is NOT consumed: a client that
        // republishes a well-formed document under the same name (the
        // retry protocol after a corrupt write) is served normally.
        reason.reason = "parse_failure";
        reason.detail = e.what();
        quarantine_and_count(options, shared, src, name, reason);
        bump_poison(shared, tenant);
        return true;
      }
      if (util::path_exists(journal + "/" + name)) {
        // Already admitted into the write-ahead history: duplicate.
        reason.reason = "duplicate";
        reason.detail = "journal already holds this document";
        reason.jobs = doc.is_hello
                          ? 0
                          : static_cast<std::uint64_t>(doc.submission.jobs.size());
        quarantine_and_count(options, shared, src, name, reason);
        return true;
      }
      const std::uint64_t ordinal =
          shared.claims.fetch_add(1, std::memory_order_relaxed);
      if (options.faults.fires(dist::FaultSite::StallIngest, ordinal,
                               shared.generation)) {
        // Slow disk / NFS stall: the claim is held, the pipeline keeps
        // running on what it already has. Latency, not loss.
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
      // Write-ahead: journal the claimed document before its jobs can
      // enter the pipeline. A lost rename race (ENOENT) means the document
      // is already journaled — e.g. the recovery sweep of a previous
      // generation retired it between our claim and this retire — which is
      // success, not a fault; anything else is a real I/O failure and the
      // retire has already thrown.
      if (!util::retire_file(src, journal + "/" + name,
                             options.journal_fsync)) {
        PS_CHECK_MSG(
            util::path_exists(journal + "/" + name),
            "serve ingest: claimed document vanished before it was journaled");
      }
      shared.ingest_journaled.inc();
      if (!doc.is_hello) inc_inflight(shared, tenant);
      if (options.faults.fires(dist::FaultSite::DieAfterClaim, ordinal,
                               shared.generation)) {
        emulate_sigkill();  // journaled but never applied: recovery replays it
      }
      while (!shared.queue.try_push(std::move(doc))) {
        if (shared.queue.closed()) return false;
        // Backpressure: hold this document (claimed, so no other reader
        // can take it) and retry; flip the gate so clients back off.
        queue_full = true;
        shared.stalls.inc();
        shared.accepting.store(false, std::memory_order_relaxed);
        publish_status(options, shared, status_seq);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (shared.ingest_stop.load(std::memory_order_relaxed)) return false;
      }
      return true;
    };

    // Group the inbox by client: hellos first (tiny, and they carry the
    // tenant mapping everything below bills against). list_files returns
    // sorted names, so each per-client vector is already in seq order and
    // the journal keeps its per-client-prefix property.
    std::vector<std::pair<std::string, InboxName>> hellos;
    std::map<std::string, std::vector<std::pair<std::string, InboxName>>>
        per_client;
    for (const std::string& name : names) {
      std::optional<InboxName> decoded = parse_inbox_name(name);
      if (!decoded) continue;  // tmp litter from in-flight publishes
      ++backlog;
      if (decoded->hello) {
        hellos.emplace_back(name, *decoded);
      } else {
        per_client[decoded->client].emplace_back(name, *decoded);
      }
    }
    for (const auto& [name, decoded] : hellos) {
      if (!pump_doc(name, decoded)) return;
    }
    std::map<std::string, std::size_t> cursor;
    bool stop_pass = false;
    while (!stop_pass) {
      bool progressed = false;
      for (const auto& [client, docs] : per_client) {
        if (shared.ingest_stop.load(std::memory_order_relaxed)) {
          stop_pass = true;
          break;
        }
        std::size_t& at = cursor[client];
        if (at >= docs.size()) continue;
        const std::string tenant = tenant_for(shared, client);
        if (options.tenant_inflight_docs > 0 &&
            !is_poisoned(shared, tenant) &&
            inflight_of(shared, tenant) >= options.tenant_inflight_docs) {
          // Over quota: hold the rest of this client's backlog in the
          // inbox until the serve loop admits what is already claimed.
          if (!quota_held) {
            quota_held = true;
            shared.inflight_holds.inc();
          }
          at = docs.size();
          continue;
        }
        if (slow_start_blocks()) {
          stop_pass = true;
          break;
        }
        const auto& [name, decoded] = docs[at];
        ++at;
        if (!pump_doc(name, decoded)) return;
        progressed = true;
      }
      if (!progressed) stop_pass = true;
    }
    bool accepting = !queue_full && !slow_held &&
                     backlog <= options.inbox_high_water;
    bool changed =
        shared.accepting.exchange(accepting, std::memory_order_relaxed) !=
        accepting;
    std::int64_t now_ns = monotonic_ns();
    if (changed || now_ns - last_status_ns >=
                       options.status_interval_ms * 1'000'000) {
      publish_status(options, shared, status_seq);
      last_status_ns = now_ns;
    }
    if (backlog == 0 || quota_held || slow_held) {
      // Idle, or everything claimable is gated: poll instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
    }
  }
  // Final status: the daemon is draining; nothing further will be claimed.
  shared.accepting.store(false, std::memory_order_relaxed);
  publish_status(options, shared, status_seq);
}

/// Per-client stream reassembly: documents apply in contiguous sequence
/// order no matter how the filesystem listed them.
struct ClientState {
  bool helloed = false;
  Hello hello;
  /// Billing tenant (the hello's declaration; client name before that).
  std::string tenant;
  std::uint64_t weight = 1;
  /// Abandoned with its poisoned tenant: documents quarantine, streams no
  /// longer count toward completion.
  bool abandoned = false;
  std::uint64_t next_seq = 0;
  std::map<std::uint64_t, Submission> deferred;
  /// Consumed-quarantine tombstones: sequence numbers the stream skips
  /// (their documents live in quarantine/, not the journal) — restored
  /// from the sealed reason records at recovery, consulted when building
  /// checkpoint segments.
  std::set<std::uint64_t> quarantined;
  sim::Time watermark = -1;
  bool eof = false;
  std::uint64_t jobs = 0;
  /// Running chain_submission fingerprint over every applied document —
  /// checkpointed, and cross-checked when a recovery replays the history.
  std::uint64_t history_fp = 0xcbf29ce484222325ull;
  /// Recovery expectation: when next_seq reaches expect_fp_at_seq the
  /// replayed history_fp must equal the checkpointed one exactly.
  bool has_expect_fp = false;
  std::uint64_t expect_fp = 0;
  std::uint64_t expect_fp_at_seq = 0;
};

/// A document whose admission latency is still pending: it completes when
/// the simulation clock passes the last submit time it carried.
struct PendingLatency {
  sim::Time due;
  std::int64_t publish_ns;
  std::uint32_t jobs;
  bool operator>(const PendingLatency& other) const noexcept {
    return due > other.due;
  }
};

}  // namespace

ServeReport run_server(const ServeOptions& options) {
  PS_CHECK_MSG(!options.spool.empty(), "serve: spool path required");
  PS_CHECK_MSG(options.expect_clients >= 1, "serve: expect_clients >= 1");
  PS_CHECK_MSG(options.queue_capacity >= 1, "serve: queue capacity >= 1");
  PS_CHECK_MSG(options.hello_timeout_ms >= 0,
               "serve: hello timeout >= 0 (0 = wait forever)");
  PS_CHECK_MSG(options.checkpoint_jobs >= 0, "serve: checkpoint jobs >= 0");
  PS_CHECK_MSG(options.checkpoint_seconds >= 0,
               "serve: checkpoint seconds >= 0");
  PS_CHECK_MSG(options.telemetry_seconds >= 0,
               "serve: telemetry seconds >= 0 (0 = off)");
  if (options.mode == Mode::kWallClock) {
    PS_CHECK_MSG(options.accel > 0.0, "serve: wall-clock accel > 0");
  }

  const std::string accepted = accepted_dir(options.spool);
  const std::string journal = journal_dir(options.spool);
  const std::string ckpt_dir = checkpoints_dir(options.spool);
  util::ensure_dir(options.spool);
  util::ensure_dir(inbox_dir(options.spool));
  util::ensure_dir(accepted);
  util::ensure_dir(journal);
  util::ensure_dir(ckpt_dir);
  util::ensure_dir(quarantine_dir(options.spool));
  util::ensure_dir(options.spool + "/control");
  if (options.telemetry_seconds > 0) {
    util::ensure_dir(options.spool + "/telemetry");
  }

  ServeReport report;
  report.generation = bump_epoch(options.spool);

  // Registry-homed run counters (obs/registry.h): each site increments the
  // process-wide counter; the report's fields are the run's *deltas*
  // against the baseline captured here ("report structs are snapshot
  // views"). Control flow — checkpoint gating, recovery cross-checks —
  // never reads the registry, so the measurement kill switch can zero the
  // report without perturbing a replay.
  obs::Registry& registry = obs::Registry::global();
  const obs::CounterBaseline baseline;
  obs::Counter& c_docs = registry.counter("serve.docs");
  obs::Counter& c_admitted = registry.counter("serve.jobs_admitted");
  obs::Counter& c_checkpoints = registry.counter("serve.checkpoints");
  obs::Counter& c_ckpt_skipped = registry.counter("serve.checkpoints_skipped");
  obs::Counter& c_pruned = registry.counter("serve.journal_pruned");
  obs::Counter& c_recovered_docs = registry.counter("serve.recovered_docs");
  obs::Counter& c_recovered_jobs = registry.counter("serve.recovered_jobs");
  obs::Counter& c_q_docs = registry.counter("serve.quarantine.docs");
  obs::Counter& c_q_jobs = registry.counter("serve.quarantine.jobs");
  obs::Counter& c_quota_deferrals =
      registry.counter("serve.quota.window_deferrals");
  auto finalize_report_counters = [&] {
    report.docs = baseline.delta("serve.docs");
    report.backpressure_stalls = baseline.delta("serve.backpressure_stalls");
    report.checkpoints = baseline.delta("serve.checkpoints");
    report.checkpoints_skipped = baseline.delta("serve.checkpoints_skipped");
    report.journal_pruned = baseline.delta("serve.journal_pruned");
    report.recovered_docs = baseline.delta("serve.recovered_docs");
    report.recovered_jobs = baseline.delta("serve.recovered_jobs");
    report.quarantined_docs = baseline.delta("serve.quarantine.docs");
    report.quarantined_jobs = baseline.delta("serve.quarantine.jobs");
    report.poisoned_tenants =
        baseline.delta("serve.quarantine.poisoned_tenants");
    report.quota_deferrals = baseline.delta("serve.quota.window_deferrals");
    report.inflight_holds = baseline.delta("serve.quota.inflight_holds");
    report.slow_start_holds = baseline.delta("serve.slow_start.holds");
  };

  // A spool that already holds claimed or checkpointed admission state is
  // a crashed run. Refusing to start without --recover is the whole point:
  // silently ignoring a journal would lose admitted jobs.
  const bool dirty = !util::list_files(journal).empty() ||
                     !util::list_files(ckpt_dir, ".ckpt").empty() ||
                     !util::list_files(accepted).empty();
  PS_CHECK_MSG(options.recover || !dirty,
               "serve: spool holds journaled admission state from a previous "
               "run — pass --recover to resume it, or use a fresh spool");

  // The scenario flags are baked into every checkpoint: a recovery with a
  // different cluster/policy would deterministically diverge from the
  // journaled history, so it is rejected instead of replayed.
  const std::uint64_t scenario_checksum =
      util::fnv1a_bytes(dist::serialize(options.scenario));

  // --- recovery phase A: collect the durable history (no threads yet) --------
  std::optional<Checkpoint> ckpt;
  std::vector<Hello> recovered_hellos;
  std::vector<Submission> recovered_subs;
  std::map<std::string, std::uint64_t> compacted;  // client -> journal floor
  // Consumed-seq tombstones from previous generations (sealed reason
  // records in quarantine/): recovery replays *around* those gaps.
  std::map<std::string, std::set<std::uint64_t>> tombstones;
  // True when the spool already held quarantined documents at startup —
  // the admitted==declared reconciliation cannot hold across a recovery
  // of a run that rejected work.
  const bool had_quarantine =
      !util::list_files(quarantine_dir(options.spool), ".reason").empty();
  std::uint64_t ckpt_next_seq = 0;
  std::uint64_t early_q_ordinal = 0;
  // Quarantine before the ingest thread (and Shared) exist: phase A finds
  // tombstoned or rotted journal entries while single-threaded.
  auto early_quarantine = [&](const std::string& name, QuarantineReason reason,
                              std::uint64_t jobs) {
    reason.generation = report.generation;
    reason.jobs = jobs;
    reason.wall_ns = monotonic_ns();
    quarantine_document(options.spool, journal + "/" + name, name,
                        early_q_ordinal++, reason);
    c_q_docs.inc();
    c_q_jobs.inc(jobs);
  };
  if (options.recover) {
    tombstones = load_quarantine_tombstones(options.spool);
    // Finish any claim interrupted mid-retire: accepted/ -> journal/.
    for (const std::string& name : util::list_files(accepted)) {
      if (!parse_inbox_name(name)) continue;
      util::retire_file(accepted + "/" + name, journal + "/" + name,
                        /*durable=*/true);
    }
    std::uint64_t skipped = 0;
    ckpt = load_newest_checkpoint(ckpt_dir, &skipped);
    c_ckpt_skipped.inc(skipped);
    if (ckpt) {
      PS_CHECK_MSG(ckpt->scenario_checksum == scenario_checksum,
                   "serve --recover: scenario flags differ from the "
                   "checkpointed run — recovery would diverge");
      ckpt_next_seq = ckpt->seq + 1;
      for (const CheckpointClient& client : ckpt->clients) {
        compacted[client.name] = client.next_seq;
      }
      for (std::uint64_t s = 0; s <= ckpt->seq; ++s) {
        Segment segment = parse_segment(
            util::read_file(ckpt_dir + "/" + segment_file_name(s)));
        PS_CHECK_MSG(segment.seq == s,
                     "serve --recover: segment sequence mismatch");
        for (Submission& doc : segment.docs) {
          recovered_subs.push_back(std::move(doc));
        }
      }
    }
    for (const std::string& name : util::list_files(journal)) {
      std::optional<InboxName> decoded = parse_inbox_name(name);
      if (!decoded) continue;
      if (decoded->hello) {
        Hello hello = parse_hello(util::read_file(journal + "/" + name));
        PS_CHECK_MSG(hello.client == decoded->client,
                     "serve --recover: journaled hello does not match its name");
        recovered_hellos.push_back(std::move(hello));
        continue;
      }
      auto floor = compacted.find(decoded->client);
      if (floor != compacted.end() && decoded->seq < floor->second) {
        // Checkpointed but not yet pruned (crash inside the prune window):
        // the document already lives in a segment; finish the prune now.
        util::remove_file(journal + "/" + name);
        c_pruned.inc();
        continue;
      }
      auto ts = tombstones.find(decoded->client);
      if (ts != tombstones.end() && ts->second.count(decoded->seq)) {
        // A consumed tombstone exists for this entry: the previous
        // generation crashed between writing the reason record and moving
        // the document. Finish the interrupted quarantine move.
        QuarantineReason reason;
        reason.client = decoded->client;
        reason.seq = static_cast<std::int64_t>(decoded->seq);
        reason.reason = "tombstone_sweep";
        reason.detail = "journal entry superseded by a consumed tombstone";
        early_quarantine(name, reason, 0);
        continue;
      }
      Submission sub;
      try {
        sub = parse_submission(util::read_file(journal + "/" + name));
        if (sub.client != decoded->client || sub.seq != decoded->seq) {
          throw std::runtime_error(
              "journaled submission does not match its name");
        }
      } catch (const std::exception& e) {
        // A rotted journal entry (the journal is server-owned, so this is
        // disk damage, not hostile input). Quarantine it with a consumed
        // tombstone so the stream replays around the gap; if a checkpoint
        // actually covered this seq, the history-fingerprint cross-check
        // below still fails loudly — rot inside checkpointed history is
        // genuinely unrecoverable.
        QuarantineReason reason;
        reason.client = decoded->client;
        reason.seq = static_cast<std::int64_t>(decoded->seq);
        reason.reason = "parse_failure";
        reason.detail = e.what();
        reason.consumed = true;
        early_quarantine(name, reason, 0);
        tombstones[decoded->client].insert(decoded->seq);
        continue;
      }
      recovered_subs.push_back(std::move(sub));
    }
  }

  Shared shared(options.queue_capacity);
  shared.generation = report.generation;
  shared.quarantine_ordinal.store(early_q_ordinal, std::memory_order_relaxed);
  // Slow start only guards a *dirty* recovery: a clean start has no
  // outage backlog to be stampeded by.
  shared.slow_start.store(
      options.slow_start_docs > 0 && options.recover && dirty,
      std::memory_order_relaxed);
  std::thread ingest([&] {
    try {
      ingest_loop(options, shared);
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(shared.failure_mutex);
        shared.failure = e.what();
      }
      shared.failed.store(true, std::memory_order_release);
      shared.queue.close();  // wakes the serve thread immediately
    }
  });
  // Joins on every exit path, including exceptions thrown by the protocol
  // checks below — a joinable thread in a destructor is std::terminate.
  struct IngestJoiner {
    Shared& shared;
    std::thread& thread;
    void join() {
      shared.ingest_stop.store(true, std::memory_order_relaxed);
      shared.queue.close();
      if (thread.joinable()) thread.join();
    }
    ~IngestJoiner() { join(); }
  } joiner{shared, ingest};

  const bool wall_mode = options.mode == Mode::kWallClock;
  workload::LiveJobSource source(/*clamp_late=*/wall_mode);
  std::map<std::string, ClientState> clients;
  std::priority_queue<PendingLatency, std::vector<PendingLatency>,
                      std::greater<PendingLatency>>
      pending_latency;
  int hellos = 0;
  // Documents applied (control state for checkpoint gating and the
  // checkpointed cumulative count — deliberately not the registry counter,
  // which the kill switch may zero).
  std::uint64_t docs_applied = 0;

  auto stop_requested = [&] {
    return options.stop && options.stop->load(std::memory_order_relaxed);
  };
  auto check_ingest_alive = [&] {
    if (!shared.failed.load(std::memory_order_acquire)) return;
    joiner.join();
    std::lock_guard<std::mutex> lock(shared.failure_mutex);
    PS_CHECK_MSG(false, "serve ingest thread failed: " + shared.failure);
  };

  // False while the recovered history replays: those documents' publish
  // timestamps belong to a previous process (and include the outage), so
  // they would poison the latency percentiles. The checkpointed sketch is
  // restored instead.
  bool measure_latency = true;

  // Deficit-weighted round-robin admission (serve/fair.h). Inactive until
  // the serve loop starts: the hello phase and recovery replay admit
  // unthrottled (recovered history was already admitted once).
  FairAdmitter admitter(options.quotas);
  bool live_quota = false;
  sim::Time committed = -1;

  auto tenant_key = [&](const std::string& name,
                        const ClientState& client) -> const std::string& {
    return client.tenant.empty() ? name : client.tenant;
  };

  auto check_fp = [&](ClientState& client) {
    if (client.has_expect_fp && client.next_seq == client.expect_fp_at_seq) {
      // The replayed history reached the checkpoint's floor: any serde
      // drift, reordering or lost document diverges here, loudly, instead
      // of producing a silently different replay.
      PS_CHECK_MSG(client.history_fp == client.expect_fp,
                   "serve --recover: replayed history fingerprint does not "
                   "match the checkpoint");
      client.has_expect_fp = false;
    }
  };

  // Quarantines a document that already lives in the journal (the serve
  // thread's validation rejections) and releases its in-flight slot.
  auto quarantine_journaled = [&](const std::string& client_name,
                                  const std::string& tenant, bool is_hello,
                                  std::uint64_t seq, std::uint64_t jobs,
                                  const char* why, std::string detail,
                                  bool consumed) {
    QuarantineReason reason;
    reason.client = client_name;
    reason.seq = is_hello ? -1 : static_cast<std::int64_t>(seq);
    reason.kind = is_hello ? "hello" : "submission";
    reason.reason = why;
    reason.detail = std::move(detail);
    reason.consumed = consumed;
    reason.jobs = jobs;
    const std::string name = is_hello ? hello_file_name(client_name)
                                      : submission_file_name(client_name, seq);
    quarantine_and_count(options, shared, journal + "/" + name, name, reason);
    if (!is_hello) dec_inflight(shared, tenant);
  };

  // Abandons a tenant: marks it poisoned (the ingest thread routes its
  // future documents straight to quarantine), quarantines every pending
  // document of its clients, and drops its streams from the completion
  // conditions.
  auto poison_teardown = [&](const std::string& tenant) {
    {
      std::lock_guard<std::mutex> lock(shared.tenant_mutex);
      if (!shared.poisoned.insert(tenant).second) return;
    }
    shared.q_poisoned.inc();
    for (auto& [name, client] : clients) {
      if (tenant_key(name, client) != tenant) continue;
      client.abandoned = true;
      for (auto& [seq, doc] : client.deferred) {
        quarantine_journaled(name, tenant, /*is_hello=*/false, seq,
                             doc.jobs.size(), "tenant_poisoned",
                             "pending document of an abandoned tenant",
                             /*consumed=*/false);
      }
      client.deferred.clear();
    }
  };

  // Charges one poison document to the tenant and abandons it when the
  // threshold is crossed. The ingest thread also charges (parse
  // failures); check_poison() in the serve loop picks those up.
  auto charge_poison = [&](const std::string& tenant) {
    if (options.poison_threshold == 0) {
      bump_poison(shared, tenant);
      return;
    }
    std::uint64_t score = 0;
    {
      std::lock_guard<std::mutex> lock(shared.tenant_mutex);
      score = ++shared.poison_score[tenant];
    }
    if (score >= options.poison_threshold) poison_teardown(tenant);
  };

  auto check_poison = [&] {
    if (options.poison_threshold == 0) return;
    std::vector<std::string> over;
    {
      std::lock_guard<std::mutex> lock(shared.tenant_mutex);
      for (const auto& [tenant, score] : shared.poison_score) {
        if (score >= options.poison_threshold &&
            shared.poisoned.count(tenant) == 0) {
          over.push_back(tenant);
        }
      }
    }
    for (const std::string& tenant : over) poison_teardown(tenant);
  };

  // Applies the client's contiguous deferred documents, spending admit
  // budget per document when `enforce_quota` (the live DRR path; the
  // hello phase and recovery replay pass false). Consumed-quarantine
  // tombstones are skipped over for free — the stream continues around
  // them without chaining. Returns documents progressed (applied or
  // consumed), the DRR loop's progress signal.
  auto apply_ready = [&](const std::string& name, ClientState& client,
                         bool enforce_quota) -> std::uint64_t {
    std::uint64_t progressed = 0;
    while (!client.abandoned) {
      if (client.quarantined.count(client.next_seq)) {
        auto dup = client.deferred.find(client.next_seq);
        if (dup != client.deferred.end()) {
          // A republish under a consumed seq: the slot is spent.
          quarantine_journaled(name, tenant_key(name, client),
                               /*is_hello=*/false, client.next_seq,
                               dup->second.jobs.size(), "duplicate",
                               "republish of a quarantined sequence number",
                               /*consumed=*/false);
          client.deferred.erase(dup);
        }
        ++client.next_seq;
        ++progressed;
        check_fp(client);
        continue;
      }
      auto it = client.deferred.find(client.next_seq);
      if (it == client.deferred.end()) break;
      const std::string& tenant = tenant_key(name, client);
      const std::uint64_t cost =
          std::max<std::uint64_t>(it->second.jobs.size(), 1);
      if (enforce_quota && !admitter.try_admit(tenant, cost)) break;
      Submission doc = std::move(it->second);
      client.deferred.erase(it);
      dec_inflight(shared, tenant);
      if (doc.watermark < client.watermark) {
        // Watermark regression: the payload is rejected and the seq
        // consumed (tombstone) so the stream is not wedged; eof still
        // honored for liveness. Pre-hardening this PS_CHECK-killed the
        // daemon.
        client.quarantined.insert(doc.seq);
        quarantine_journaled(name, tenant, /*is_hello=*/false, doc.seq,
                             doc.jobs.size(), "watermark_regressed",
                             "watermark below the client's previous document",
                             /*consumed=*/true);
        charge_poison(tenant);
        client.eof = doc.eof;
        ++client.next_seq;
        ++progressed;
        check_fp(client);
        continue;
      }
      sim::Time first = sim::kTimeMax;
      for (const workload::JobRequest& job : doc.jobs) {
        first = std::min(first, job.submit_time);
      }
      if (!wall_mode && !doc.jobs.empty() && first <= committed) {
        // Deterministic mode cannot admit in the past; only a lying
        // watermark can steer the committed clock beyond a client's own
        // future jobs (honest streams keep jobs strictly above their own
        // watermark, which bounds the committed minimum). Metadata
        // applies — the watermark may be the only honest part — but the
        // payload quarantines and the seq is consumed.
        client.quarantined.insert(doc.seq);
        quarantine_journaled(name, tenant, /*is_hello=*/false, doc.seq,
                             doc.jobs.size(), "late_jobs",
                             "det-mode payload at or below the committed "
                             "clock (watermark lie)",
                             /*consumed=*/true);
        charge_poison(tenant);
        client.watermark = std::max(client.watermark, doc.watermark);
        client.eof = doc.eof;
        ++client.next_seq;
        ++progressed;
        check_fp(client);
        continue;
      }
      client.history_fp = chain_submission(client.history_fp, doc);
      if (!doc.jobs.empty()) {
        sim::Time last = -1;
        for (const workload::JobRequest& job : doc.jobs) {
          last = std::max(last, job.submit_time);
        }
        if (measure_latency) {
          pending_latency.push({last, doc.publish_ns,
                                static_cast<std::uint32_t>(doc.jobs.size())});
        }
        client.jobs += doc.jobs.size();
        source.push(std::move(doc.jobs));
      }
      client.watermark = doc.watermark;
      client.eof = doc.eof;
      ++client.next_seq;
      ++progressed;
      ++docs_applied;
      c_docs.inc();
      check_fp(client);
    }
    return progressed;
  };

  auto process = [&](IngestDoc&& doc) {
    if (doc.is_hello) {
      ClientState& client = clients[doc.hello.client];
      const std::string& cname = doc.hello.client;
      // A duplicate hello cannot normally reach this thread (the journal
      // holds hellos for the daemon's lifetime, so the ingest duplicate
      // check catches republishes) — seeing one means the write-ahead
      // invariant broke.
      PS_CHECK_MSG(!client.helloed, "serve: duplicate hello from a client");
      client.tenant = doc.hello.tenant.empty() ? cname : doc.hello.tenant;
      client.weight = std::max<std::uint64_t>(doc.hello.weight, 1);
      {
        std::lock_guard<std::mutex> lock(shared.tenant_mutex);
        shared.tenant_of[cname] = client.tenant;
      }
      if (hellos >= options.expect_clients) {
        // An unexpected extra client: structurally wrong, not transient.
        // Quarantine the hello and abandon its tenant outright.
        quarantine_journaled(cname, client.tenant, /*is_hello=*/true, 0, 0,
                             "unexpected_client",
                             "hello beyond --expect-clients",
                             /*consumed=*/false);
        poison_teardown(client.tenant);
        client.abandoned = true;
        return;
      }
      client.helloed = true;
      client.hello = doc.hello;
      admitter.add_tenant(client.tenant, client.weight);
      ++hellos;
      if (!client.abandoned && !client.deferred.empty()) {
        apply_ready(cname, client, /*enforce_quota=*/live_quota);
      }
      return;
    }
    ClientState& client = clients[doc.submission.client];
    const std::string cname = doc.submission.client;
    const std::string& tenant = tenant_key(cname, client);
    const std::uint64_t seq = doc.submission.seq;
    if (client.abandoned) {
      quarantine_journaled(cname, tenant, /*is_hello=*/false, seq,
                           doc.submission.jobs.size(), "tenant_poisoned",
                           "document from an abandoned tenant",
                           /*consumed=*/false);
      return;
    }
    if (client.eof) {
      quarantine_journaled(cname, tenant, /*is_hello=*/false, seq,
                           doc.submission.jobs.size(), "doc_after_eof",
                           "submission after the client's eof document",
                           /*consumed=*/false);
      charge_poison(tenant);
      return;
    }
    if (seq < client.next_seq) {
      // The original already applied (or was consumed); this copy's
      // journal entry must not survive into a recovery replay.
      quarantine_journaled(cname, tenant, /*is_hello=*/false, seq,
                           doc.submission.jobs.size(), "seq_replayed",
                           "sequence number below the client's next_seq",
                           /*consumed=*/false);
      charge_poison(tenant);
      return;
    }
    bool inserted =
        client.deferred.emplace(seq, std::move(doc.submission)).second;
    // Unreachable through the spool (same client+seq means the same inbox
    // name, and the ingest duplicate check quarantines the second copy),
    // so a violation here is an internal invariant break.
    PS_CHECK_MSG(inserted, "serve: duplicate sequence number from a client");
    if (client.helloed && !live_quota) {
      // Hello phase / recovery replay: admit immediately, unthrottled.
      // Under the live loop admission waits for the DRR cycle.
      apply_ready(cname, client, /*enforce_quota=*/false);
    }
  };

  // Journaled hellos replay first; they cannot collide with live ingest
  // because a hello lives in exactly one of inbox/journal.
  for (Hello& hello : recovered_hellos) {
    IngestDoc doc;
    doc.is_hello = true;
    doc.hello = std::move(hello);
    process(std::move(doc));
  }
  recovered_hellos.clear();
  // Tombstones must be in place before any submission can apply: live
  // documents may arrive during the hello phase.
  for (auto& [client_name, seqs] : tombstones) {
    clients[client_name].quarantined.insert(seqs.begin(), seqs.end());
  }
  tombstones.clear();

  // --- hello phase: wait for every expected client ---------------------------
  const std::int64_t hello_start_ns = monotonic_ns();
  std::vector<IngestDoc> batch;
  while (hellos < options.expect_clients) {
    check_ingest_alive();
    if (stop_requested()) {
      report.interrupted = true;
      finalize_report_counters();
      return report;
    }
    PS_CHECK_MSG(options.hello_timeout_ms <= 0 ||
                     monotonic_ns() - hello_start_ns <
                         options.hello_timeout_ms * 1'000'000,
                 "serve: timed out waiting for client hellos");
    batch.clear();
    shared.queue.pop_all(batch, options.drain_wait_ms);
    for (IngestDoc& doc : batch) process(std::move(doc));
  }

  // --- recovery phase B: cross-check the checkpoint, replay the history ------
  // Deterministic-mode correctness of replay-then-advance: the final state
  // of a det replay depends only on the job set and the committed
  // watermarks, not on how many intermediate advances delivered them (the
  // same argument that makes batched hello-phase pushes equivalent to
  // steady-state ones). Pushing the whole recovered history and then
  // advancing once is therefore byte-identical to the original incremental
  // run — the fence of tests/serve_recovery_test.cc.
  if (ckpt) {
    for (const CheckpointClient& entry : ckpt->clients) {
      auto it = clients.find(entry.name);
      PS_CHECK_MSG(it != clients.end() && it->second.helloed,
                   "serve --recover: checkpointed client is missing its hello");
      ClientState& client = it->second;
      PS_CHECK_MSG(client.hello.jobs == entry.hello_jobs &&
                       client.hello.last_submit == entry.hello_last_submit,
                   "serve --recover: hello does not match the checkpoint");
      if (entry.next_seq > 0) {
        client.has_expect_fp = true;
        client.expect_fp = entry.history_fp;
        client.expect_fp_at_seq = entry.next_seq;
      }
    }
    // Latency percentiles of the pre-crash run live in the checkpoint; the
    // replayed documents below carry a dead process's publish timestamps
    // and are excluded from measurement.
    report.latency = util::QuantileSketch::parse(ckpt->sketch);
  }
  if (!recovered_subs.empty()) {
    PS_TRACE_SPAN("serve.recover.replay");
    measure_latency = false;
    // Every recovered document applies: the journal is a per-client
    // seq-prefix (claims happen in sorted listing order), so replay never
    // leaves a gap-blocked straggler behind.
    c_recovered_docs.inc(recovered_subs.size());
    for (Submission& sub : recovered_subs) {
      c_recovered_jobs.inc(sub.jobs.size());
      IngestDoc doc;
      doc.submission = std::move(sub);
      process(std::move(doc));
    }
    measure_latency = true;
    recovered_subs.clear();
    recovered_subs.shrink_to_fit();
  }

  // The hellos bound the horizon the way a trace's last_submit_hint does:
  // greatest declared submit time plus one drain hour.
  sim::Time last_submit = 0;
  for (const auto& [name, client] : clients) {
    // Hello-less stragglers (documents claimed before their hello) and
    // abandoned clients do not shape the horizon; an abandoned client
    // that *did* hello keeps its declaration — the reconciliation below
    // already knows quarantined work cannot balance.
    if (!client.helloed) continue;
    last_submit = std::max(last_submit, client.hello.last_submit);
    report.jobs_declared += client.hello.jobs;
  }
  sim::Time horizon = last_submit + sim::hours(1);
  report.horizon = horizon;
  report.clients = hellos;

  // The pump starts bounded at "nothing committed yet" (-1): every pull
  // happens through advance_to as watermarks arrive — the pump can never
  // read past what ingestion has guaranteed.
  core::Replay replay(options.scenario, source, horizon,
                      core::kDefaultStreamChunk);
  sim::Simulator& simulator = replay.simulator();
  core::SubmissionPump& pump = replay.pump();

  // --- serve loop ------------------------------------------------------------
  const std::int64_t clock_epoch_ns = monotonic_ns();
  std::int64_t last_stats_ns = clock_epoch_ns;

  auto harvest_latency = [&] {
    const sim::Time now = simulator.now();
    const std::int64_t now_ns = monotonic_ns();
    while (!pending_latency.empty() && pending_latency.top().due <= now) {
      const PendingLatency& entry = pending_latency.top();
      double ms =
          static_cast<double>(now_ns - entry.publish_ns) / 1e6;
      for (std::uint32_t i = 0; i < entry.jobs; ++i) report.latency.add(ms);
      pending_latency.pop();
    }
  };

  auto advance_to = [&](sim::Time target) {
    if (target <= simulator.now() && target <= committed) return;
    PS_TRACE_SPAN("serve.advance");
    if (target > committed) {
      committed = target;
      source.commit_watermark(std::min(target, horizon));
    }
    replay.advance_to(std::min(std::max<sim::Time>(target, 0), horizon));
    harvest_latency();
    shared.sim_time.store(simulator.now(), std::memory_order_relaxed);
    shared.admitted.store(pump.submitted(), std::memory_order_relaxed);
  };

  auto stats_tick = [&] {
    if (options.stats_interval_ms <= 0) return;
    std::int64_t now_ns = monotonic_ns();
    if (now_ns - last_stats_ns < options.stats_interval_ms * 1'000'000) return;
    last_stats_ns = now_ns;
    std::fprintf(stderr,
                 "ps-serve: sim=%s admitted=%llu queue=%zu p50=%.2fms "
                 "p99=%.2fms%s\n",
                 strings::human_duration_ms(simulator.now()).c_str(),
                 static_cast<unsigned long long>(pump.submitted()),
                 shared.queue.size(), report.latency.quantile(0.5),
                 report.latency.quantile(0.99),
                 shared.accepting.load(std::memory_order_relaxed)
                     ? ""
                     : " [backpressure]");
  };

  // --- telemetry -------------------------------------------------------------
  // Wall-clock-paced publication of sealed registry snapshots into
  // <spool>/telemetry/ (the obs/registry.h wire format). Snapshots carry
  // both clock domains: sim_time_ms from the simulation clock, wall/mono
  // stamps taken at snapshot time. Pure observation: nothing here feeds
  // back into the replay, so telemetry on/off cannot move the fingerprint
  // (the fence of tests/serve_telemetry_test.cc).
  const std::string tele_dir = options.spool + "/telemetry";
  std::uint64_t tele_seq = 0;
  std::int64_t last_tele_ns = clock_epoch_ns;
  std::uint64_t admitted_synced = 0;
  auto sync_admitted = [&] {
    const std::uint64_t total = pump.submitted();
    if (total > admitted_synced) {
      c_admitted.inc(total - admitted_synced);
      admitted_synced = total;
    }
  };
  obs::Gauge& g_queue = registry.gauge("serve.queue_depth");
  obs::Gauge& g_accepting = registry.gauge("serve.accepting");
  obs::Gauge& g_p50 = registry.gauge("serve.latency_p50_ms");
  obs::Gauge& g_p99 = registry.gauge("serve.latency_p99_ms");
  auto telemetry_publish = [&] {
    sync_admitted();
    g_queue.set(static_cast<double>(shared.queue.size()));
    g_accepting.set(
        shared.accepting.load(std::memory_order_relaxed) ? 1.0 : 0.0);
    if (report.latency.count() > 0) {
      g_p50.set(report.latency.quantile(0.5));
      g_p99.set(report.latency.quantile(0.99));
    }
    obs::Snapshot snap = registry.snapshot(/*sim_time_ms=*/simulator.now());
    snap.seq = ++tele_seq;
    util::write_file_atomic(
        tele_dir + "/" +
            strings::format("tele-%08llu.tel",
                            static_cast<unsigned long long>(tele_seq)),
        obs::serialize_snapshot(snap), /*durable=*/false);
  };
  auto telemetry_tick = [&] {
    if (options.telemetry_seconds <= 0) return;
    const std::int64_t now_ns = monotonic_ns();
    if (now_ns - last_tele_ns <
        options.telemetry_seconds * 1'000'000'000) {
      return;
    }
    last_tele_ns = now_ns;
    telemetry_publish();
  };

  // --- checkpointing ---------------------------------------------------------
  // Write order is the crash-safety argument (serve/journal.h): segment,
  // then checkpoint, then journal prune — each durable before the next
  // starts. A crash at any point leaves either the previous checkpoint
  // with its full journal suffix, or the new checkpoint with an at-worst
  // unpruned journal (recovery finishes the prune).
  std::uint64_t jobs_at_ckpt = ckpt ? ckpt->admitted : 0;
  std::uint64_t docs_at_ckpt = ckpt ? ckpt->docs : 0;
  sim::Time sim_at_ckpt = ckpt ? std::max<sim::Time>(ckpt->committed, 0) : 0;
  // Clamp counts accumulate across generations: the live source only saw
  // the documents replayed/ingested *this* process, but the report (and
  // the next checkpoint) speak for the spool's whole history.
  const std::uint64_t clamped_at_ckpt = ckpt ? ckpt->clamped : 0;

  auto write_checkpoint = [&] {
    PS_TRACE_SPAN("serve.checkpoint");
    const std::uint64_t seq = ckpt_next_seq;
    if (options.faults.fires(dist::FaultSite::DieBeforeCheckpoint, seq,
                             report.generation)) {
      emulate_sigkill();  // journal intact: recovery replays, nothing lost
    }
    Segment segment;
    segment.seq = seq;
    Checkpoint snapshot;
    snapshot.seq = seq;
    snapshot.committed = committed;
    snapshot.admitted = pump.submitted();
    snapshot.docs = docs_applied;
    snapshot.clamped = clamped_at_ckpt + source.clamped();
    snapshot.scenario_checksum = scenario_checksum;
    std::vector<std::string> prune;
    for (const auto& [name, client] : clients) {
      // A client that never helloed has no checkpointable identity (the
      // recovery cross-check would demand its hello); its journal entries
      // simply persist and replay deferred again next generation.
      if (!client.helloed) continue;
      CheckpointClient entry;
      entry.name = name;
      entry.hello_jobs = client.hello.jobs;
      entry.hello_last_submit = client.hello.last_submit;
      entry.next_seq = client.next_seq;
      entry.watermark = client.watermark;
      entry.eof = client.eof;
      entry.admitted_jobs = client.jobs;
      entry.history_fp = client.history_fp;
      snapshot.clients.push_back(std::move(entry));
      auto floor = compacted.find(name);
      std::uint64_t from = floor != compacted.end() ? floor->second : 0;
      for (std::uint64_t s = from; s < client.next_seq; ++s) {
        // Consumed-tombstoned seqs have no journal entry (their documents
        // moved to quarantine); the tombstone itself is the durable
        // record the next recovery replays around.
        if (client.quarantined.count(s)) continue;
        std::string file = submission_file_name(name, s);
        segment.docs.push_back(
            parse_submission(util::read_file(journal + "/" + file)));
        prune.push_back(std::move(file));
      }
    }
    snapshot.sketch = report.latency.serialize();
    // 1. Segment, durable. A stale seg-<seq> from a crashed predecessor is
    //    simply overwritten — only a sealed ckpt-<seq> makes it reachable.
    util::write_file_atomic(ckpt_dir + "/" + segment_file_name(seq),
                            serialize_segment(segment), /*durable=*/true);
    // 2. Checkpoint, durable — the commit point of the compaction.
    const std::string ckpt_path = ckpt_dir + "/" + checkpoint_file_name(seq);
    std::string doc = serialize_checkpoint(snapshot);
    if (options.faults.fires(dist::FaultSite::TornCheckpoint, seq,
                             report.generation)) {
      // Torn write under the final name: the seal fails at parse time and
      // recovery skips backward to the previous checkpoint, whose journal
      // suffix is still intact (this prune below never ran).
      util::write_file_atomic(ckpt_path, doc.substr(0, doc.size() / 2),
                              /*durable=*/true);
      emulate_sigkill();
    }
    util::write_file_atomic(ckpt_path, doc, /*durable=*/true);
    if (options.faults.fires(dist::FaultSite::DieAfterCheckpoint, seq,
                             report.generation)) {
      emulate_sigkill();  // prune unfinished: recovery removes the leftovers
    }
    // 3. Prune the compacted journal suffix.
    for (const std::string& file : prune) {
      util::remove_file(journal + "/" + file);
      c_pruned.inc();
    }
    for (const auto& [name, client] : clients) compacted[name] = client.next_seq;
    ckpt_next_seq = seq + 1;
    c_checkpoints.inc();
    jobs_at_ckpt = pump.submitted();
    docs_at_ckpt = docs_applied;
    sim_at_ckpt = simulator.now();
  };

  auto maybe_checkpoint = [&] {
    if (options.checkpoint_jobs == 0 && options.checkpoint_seconds == 0) return;
    // Progress-gated: an idle daemon (or one advancing over a quiet stretch
    // of simulated time) must not write a stream of identical checkpoints.
    if (pump.submitted() == jobs_at_ckpt && docs_applied == docs_at_ckpt) return;
    // `submitted() >= jobs_at_ckpt` guards the window right after recovery,
    // before the first advance re-submits the replayed history.
    bool due = options.checkpoint_jobs > 0 && pump.submitted() >= jobs_at_ckpt &&
               pump.submitted() - jobs_at_ckpt >=
                   static_cast<std::uint64_t>(options.checkpoint_jobs);
    due = due || (options.checkpoint_seconds > 0 &&
                  simulator.now() - sim_at_ckpt >=
                      sim::seconds(options.checkpoint_seconds));
    if (due) write_checkpoint();
  };

  // Per-tenant admission is live from here on; window deferrals sync into
  // the registry as deltas of the admitter's monotone counter.
  live_quota = true;
  std::uint64_t deferrals_synced = admitter.window_deferrals();

  auto refresh_tenant_status = [&] {
    std::map<std::string, TenantStatus> agg;
    for (const auto& [name, client] : clients) {
      if (!client.helloed && !client.abandoned) continue;
      const std::string& tenant = tenant_key(name, client);
      TenantStatus& row = agg[tenant];
      row.tenant = tenant;
      row.weight = admitter.weight(tenant);
      row.window_jobs_left = admitter.window_jobs_left(tenant);
      row.over_quota = admitter.window_blocked(tenant);
    }
    std::lock_guard<std::mutex> lock(shared.tenant_mutex);
    shared.tenant_status.clear();
    for (auto& [tenant, row] : agg) {
      auto it = shared.inflight.find(tenant);
      row.inflight_docs = it == shared.inflight.end() ? 0 : it->second;
      row.poisoned = shared.poisoned.count(tenant) > 0;
      shared.tenant_status.push_back(std::move(row));
    }
  };

  while (true) {
    check_ingest_alive();
    if (stop_requested()) {
      report.interrupted = true;
      break;
    }
    if (options.test_drain_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.test_drain_delay_ms));
    }
    batch.clear();
    shared.queue.pop_all(batch, options.drain_wait_ms);
    for (IngestDoc& doc : batch) process(std::move(doc));
    // Tenants the ingest thread charged (parse failures) since last look.
    check_poison();

    // Deficit-weighted round-robin admission: repeat cycles while any
    // document admits, so throughput is work-conserving — the quotas
    // shape *order* (each tenant bounded per cycle before others get
    // their turn) and the window cap, not total rate. Only
    // window-blocked tenants can be left backlogged here; they wait for
    // the wall-clock window to roll.
    while (true) {
      std::vector<std::string> backlogged;
      for (const auto& [name, client] : clients) {
        if (client.abandoned || !client.helloed) continue;
        if (client.quarantined.count(client.next_seq) ||
            client.deferred.count(client.next_seq)) {
          const std::string& tenant = tenant_key(name, client);
          if (std::find(backlogged.begin(), backlogged.end(), tenant) ==
              backlogged.end()) {
            backlogged.push_back(tenant);
          }
        }
      }
      if (backlogged.empty()) break;
      admitter.begin_cycle(monotonic_ns() / 1'000'000, backlogged);
      std::uint64_t progressed = 0;
      for (auto& [name, client] : clients) {
        if (client.abandoned || !client.helloed) continue;
        progressed += apply_ready(name, client, /*enforce_quota=*/true);
      }
      if (progressed == 0) break;
    }
    if (admitter.window_deferrals() > deferrals_synced) {
      c_quota_deferrals.inc(admitter.window_deferrals() - deferrals_synced);
      deferrals_synced = admitter.window_deferrals();
    }
    refresh_tenant_status();

    bool all_eof = true;
    bool any_live = false;
    sim::Time watermark = sim::kTimeMax;
    for (const auto& [name, client] : clients) {
      // Abandoned streams no longer count toward completion; hello-less
      // stragglers (documents claimed before their hello arrived) never
      // block it either — their documents stay deferred, bounded by the
      // in-flight quota.
      if (client.abandoned || !client.helloed) continue;
      any_live = true;
      PS_CHECK_MSG(client.deferred.empty() || !client.eof,
                   "serve: sequence gap left behind an eof document");
      if (!client.eof) {
        all_eof = false;
        watermark = std::min(watermark, client.watermark);
      }
    }
    if (all_eof) {
      // Every live stream is complete (or every stream was abandoned).
      // Advance to the committed frontier (the greatest eof watermark —
      // every published job sits below it) so the final checkpoint
      // attempt sees the whole admitted history and can compact the
      // journal before the drain takes over. Without this, a workload
      // that arrives faster than it simulates would exit the loop on its
      // first iteration and never checkpoint at all.
      if (!wall_mode && any_live) {
        sim::Time frontier = 0;
        for (const auto& [name, client] : clients) {
          if (client.abandoned || !client.helloed) continue;
          frontier = std::max(frontier, client.watermark);
        }
        advance_to(std::min(frontier, horizon));
      }
      maybe_checkpoint();
      break;
    }

    if (wall_mode) {
      double elapsed_ms =
          static_cast<double>(monotonic_ns() - clock_epoch_ns) / 1e6;
      sim::Time target = static_cast<sim::Time>(elapsed_ms * options.accel);
      advance_to(std::min(target, horizon));
    } else if (watermark > committed && watermark >= 0) {
      // Deterministic mode: chase the committed watermark, nothing more.
      advance_to(std::min(watermark, horizon));
    }
    maybe_checkpoint();
    stats_tick();
    telemetry_tick();
  }

  // --- drain -----------------------------------------------------------------
  // Every client finished (or we were told to stop): no job will ever be
  // pushed again. Close the stream and run out the drain hour.
  {
    PS_TRACE_SPAN("serve.drain");
    source.close();
    sim::Time finish = std::max(horizon, source.max_submit() + sim::hours(1));
    finish = std::max(finish, simulator.now());
    committed = std::max(committed, finish);
    // One tick past `finish`: a lying watermark can have dragged the pump's
    // horizon all the way to `horizon` mid-run, and extend_horizon is a
    // no-op on an equal horizon — the post-close refill that lets the pump
    // observe the end of the stream would never run.
    pump.extend_horizon(finish + 1);
    simulator.run_until(finish);
    harvest_latency();
    PS_CHECK_MSG(pump.fully_drained(),
                 "serve: jobs were pushed but never replayed — horizon bug");
    shared.sim_time.store(simulator.now(), std::memory_order_relaxed);
    shared.admitted.store(pump.submitted(), std::memory_order_relaxed);
    joiner.join();
  }
  report.result = replay.finish(simulator.now());
  report.fingerprint = core::fingerprint(report.result);
  report.admitted = pump.submitted();
  report.clamped = clamped_at_ckpt + source.clamped();
  report.peak_queue = shared.queue.peak();
  report.wall_ms = (monotonic_ns() - clock_epoch_ns) / 1'000'000;
  report.jobs_per_sec =
      report.wall_ms > 0
          ? static_cast<double>(report.admitted) * 1000.0 /
                static_cast<double>(report.wall_ms)
          : 0.0;
  finalize_report_counters();
  if (!report.interrupted && !had_quarantine && report.quarantined_docs == 0) {
    // The loss fence: with no rejected work anywhere in the spool's
    // history, every declared job must have been admitted. Quarantined
    // documents break the balance by design (their jobs are counted in
    // quarantined_jobs, not lost silently).
    PS_CHECK_MSG(report.admitted == report.jobs_declared,
                 "serve: admitted job count does not match the hellos");
  }
  // Fold this run's totals into the process-wide registry and derive the
  // report's counter fields as run deltas; the final telemetry document
  // (when enabled) then carries everything, latency histogram included.
  sync_admitted();
  registry.histogram("serve.latency_ms").merge(report.latency);
  finalize_report_counters();
  if (options.telemetry_seconds > 0) telemetry_publish();
  return report;
}

std::string format_report(const ServeReport& report) {
  std::string out;
  auto line = [&](const char* key, const std::string& value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  };
  line("serve_report", "v1");
  line("clients", strings::format("%d", report.clients));
  line("jobs_declared", strings::format(
                            "%llu", static_cast<unsigned long long>(
                                        report.jobs_declared)));
  line("admitted", strings::format("%llu", static_cast<unsigned long long>(
                                               report.admitted)));
  line("clamped", strings::format("%llu", static_cast<unsigned long long>(
                                              report.clamped)));
  line("docs", strings::format("%llu",
                               static_cast<unsigned long long>(report.docs)));
  line("backpressure_stalls",
       strings::format("%llu",
                       static_cast<unsigned long long>(
                           report.backpressure_stalls)));
  line("peak_queue", strings::format("%zu", report.peak_queue));
  line("horizon_ms", strings::format("%lld", static_cast<long long>(
                                                 report.horizon)));
  line("wall_ms", strings::format("%lld", static_cast<long long>(
                                              report.wall_ms)));
  line("jobs_per_sec", strings::format("%.3f", report.jobs_per_sec));
  line("latency_count",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.latency.count())));
  line("latency_p50_ms", strings::format("%.3f", report.latency.quantile(0.5)));
  line("latency_p95_ms", strings::format("%.3f", report.latency.quantile(0.95)));
  line("latency_p99_ms", strings::format("%.3f", report.latency.quantile(0.99)));
  line("latency_max_ms", strings::format("%.3f", report.latency.max()));
  line("completed_jobs",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.result.summary.completed_jobs)));
  line("generation", strings::format("%llu", static_cast<unsigned long long>(
                                                 report.generation)));
  line("recovered_docs",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.recovered_docs)));
  line("recovered_jobs",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.recovered_jobs)));
  line("checkpoints", strings::format("%llu", static_cast<unsigned long long>(
                                                  report.checkpoints)));
  line("checkpoints_skipped",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.checkpoints_skipped)));
  line("journal_pruned",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.journal_pruned)));
  line("quarantined_docs",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.quarantined_docs)));
  line("quarantined_jobs",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.quarantined_jobs)));
  line("poisoned_tenants",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.poisoned_tenants)));
  line("quota_deferrals",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.quota_deferrals)));
  line("inflight_holds",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.inflight_holds)));
  line("slow_start_holds",
       strings::format("%llu", static_cast<unsigned long long>(
                                   report.slow_start_holds)));
  line("interrupted", report.interrupted ? "1" : "0");
  line("fingerprint", dist::hex64_token(report.fingerprint));
  return out;
}

}  // namespace ps::serve
