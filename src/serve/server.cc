#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <cstdio>

#include "core/fingerprint.h"
#include "core/replay.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "dist/serde.h"
#include "serve/fair.h"
#include "serve/ingest.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/quarantine.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/spool.h"
#include "util/strings.h"
#include "workload/live_source.h"

namespace ps::serve {

namespace {

using workload::JobRequest;

constexpr std::int64_t kDrainWaitMs = 20;  ///< serve-loop queue wait

/// Per-client stream reassembly: documents apply in contiguous sequence
/// order no matter how the filesystem listed them.
struct ClientState {
  bool helloed = false;
  Hello hello;
  std::uint64_t next_seq = 0;
  std::map<std::uint64_t, IngestDoc> deferred;
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
  /// Recovery expectation: when next_seq reaches expect_fp_at_seq (0 =
  /// none) the replayed history_fp must equal the checkpointed one exactly.
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

/// The daemon's whole lifecycle, one method per phase (docs/ARCHITECTURE.md,
/// "Daemon phases"): recover_history, start_ingest, await_hellos,
/// replay_history, serve, drain — called in that order by run_server. The
/// simulator and every core/ object are touched by the calling thread only;
/// the ingest thread (serve/ingest.h) shares nothing but `shared_`, whose
/// TenantBook alone says whether a client is abandoned.
class Daemon {
 public:
  /// Prepares the spool and refuses a dirty one without --recover.
  explicit Daemon(const ServeOptions& options)
      : options_(options),
        accepted_(accepted_dir(options.spool)),
        journal_(journal_dir(options.spool)),
        ckpt_dir_(checkpoints_dir(options.spool)),
        wall_mode_(options.mode == Mode::kWallClock),
        scenario_checksum_(
            util::fnv1a_bytes(dist::serialize(options.scenario))),
        shared_(options),
        source_(/*clamp_late=*/wall_mode_),
        admitter_(options.quotas) {
    for (const std::string& dir :
         {options.spool, inbox_dir(options.spool), accepted_, journal_,
          ckpt_dir_, quarantine_dir(options.spool),
          options.spool + "/control"}) {
      util::ensure_dir(dir);
    }
    if (options.telemetry_seconds > 0) {
      util::ensure_dir(options.spool + "/telemetry");
    }
    report_.generation = bump_epoch(options.spool);
    shared_.generation = report_.generation;

    // A spool that already holds claimed or checkpointed admission state is
    // a crashed run. Refusing to start without --recover is the whole
    // point: silently ignoring a journal would lose admitted jobs.
    const bool dirty = !util::list_files(journal_).empty() ||
                       !util::list_files(ckpt_dir_, ".ckpt").empty() ||
                       !util::list_files(accepted_).empty();
    PS_CHECK_MSG(options.recover || !dirty,
                 "serve: spool holds journaled admission state from a "
                 "previous run — pass --recover to resume it, or use a fresh "
                 "spool");
    // Slow start only guards a *dirty* recovery: a clean start has no
    // outage backlog to be stampeded by.
    shared_.slow_start.store(
        options.slow_start_docs > 0 && options.recover && dirty,
        std::memory_order_relaxed);
  }

  ~Daemon() { stop_ingest(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Phase A: collect the durable history while single-threaded — sweep
  /// interrupted claims into the journal, load the newest sealed
  /// checkpoint and its segments, and read the journal suffix around the
  /// consumed tombstones of previous generations.
  void recover_history() {
    if (!options_.recover) return;
    for (auto& [client, seqs] : load_quarantine_tombstones(options_.spool)) {
      clients_[client].quarantined = std::move(seqs);
    }
    // Finish any claim interrupted mid-retire: accepted/ -> journal/.
    for (const std::string& name : util::list_files(accepted_)) {
      if (!parse_inbox_name(name)) continue;
      util::retire_file(accepted_ + "/" + name, journal_ + "/" + name,
                        /*durable=*/true);
    }
    std::uint64_t skipped = 0;
    ckpt_ = load_newest_checkpoint(ckpt_dir_, &skipped);
    c_ckpt_skipped_.inc(skipped);
    if (ckpt_) {
      PS_CHECK_MSG(ckpt_->scenario_checksum == scenario_checksum_,
                   "serve --recover: scenario flags differ from the "
                   "checkpointed run — recovery would diverge");
      ckpt_next_seq_ = ckpt_->seq + 1;
      jobs_at_ckpt_ = ckpt_->admitted;
      docs_at_ckpt_ = ckpt_->docs;
      sim_at_ckpt_ = std::max<sim::Time>(ckpt_->committed, 0);
      clamped_at_ckpt_ = ckpt_->clamped;
      for (const CheckpointClient& client : ckpt_->clients) {
        compacted_[client.name] = client.next_seq;
      }
      for (std::uint64_t s = 0; s <= ckpt_->seq; ++s) {
        Segment segment = parse_segment(
            util::read_file(ckpt_dir_ + "/" + segment_file_name(s)));
        PS_CHECK_MSG(segment.seq == s,
                     "serve --recover: segment sequence mismatch");
        std::move(segment.docs.begin(), segment.docs.end(),
                  std::back_inserter(recovered_subs_));
      }
    }
    for (const std::string& name : util::list_files(journal_)) {
      std::optional<InboxName> decoded = parse_inbox_name(name);
      if (decoded) recover_journal_entry(name, *decoded);
    }
  }

  void start_ingest() {
    ingest_ = std::thread([this] { run_ingest(options_, shared_); });
  }

  /// Waits for every expected client (journaled hellos were applied at
  /// recovery). False = the shutdown flag fired first.
  bool await_hellos() {
    const std::int64_t start_ns = monotonic_ns();
    while (hellos_ < options_.expect_clients) {
      check_ingest_alive();
      if (options_.stop && options_.stop->load(std::memory_order_relaxed)) {
        report_.interrupted = true;
        return false;
      }
      PS_CHECK_MSG(options_.hello_timeout_ms <= 0 ||
                       monotonic_ns() - start_ns <
                           options_.hello_timeout_ms * 1'000'000,
                   "serve: timed out waiting for client hellos");
      apply_queued();
    }
    return true;
  }

  /// Phase B: cross-check the checkpoint, replay the recovered history,
  /// then wire the replay over the horizon the hellos declare.
  ///
  /// Deterministic-mode correctness of replay-then-advance: the final state
  /// of a det replay depends only on the job set and the committed
  /// watermarks, not on how many intermediate advances delivered them (the
  /// same argument that makes batched hello-phase pushes equivalent to
  /// steady-state ones). Pushing the whole recovered history and then
  /// advancing once is therefore byte-identical to the original
  /// incremental run — the fence of tests/serve_recovery_test.cc.
  void replay_history() {
    if (ckpt_) {
      for (const CheckpointClient& entry : ckpt_->clients) {
        auto it = clients_.find(entry.name);
        PS_CHECK_MSG(it != clients_.end() && it->second.helloed,
                     "serve --recover: checkpointed client is missing its "
                     "hello");
        ClientState& client = it->second;
        PS_CHECK_MSG(client.hello.jobs == entry.hello_jobs &&
                         client.hello.last_submit == entry.hello_last_submit,
                     "serve --recover: hello does not match the checkpoint");
        client.expect_fp = entry.history_fp;
        client.expect_fp_at_seq = entry.next_seq;
      }
      // Latency percentiles of the pre-crash run live in the checkpoint;
      // the replayed documents below carry a dead process's publish
      // timestamps (outage included) and are excluded from measurement.
      report_.latency = std::move(ckpt_->sketch);
      ckpt_.reset();
    }
    if (!recovered_subs_.empty()) {
      PS_TRACE_SPAN("serve.recover.replay");
      measure_latency_ = false;
      // Every recovered document applies: the journal is a per-client
      // seq-prefix (claims happen in sorted listing order), so replay never
      // leaves a gap-blocked straggler behind.
      c_recovered_docs_.inc(recovered_subs_.size());
      for (Submission& sub : recovered_subs_) {
        c_recovered_jobs_.inc(sub.jobs.size());
        IngestDoc doc;  // recovered: never charged an in-flight slot
        doc.submission = std::move(sub);
        on_submission(std::move(doc));
      }
      measure_latency_ = true;
      recovered_subs_ = {};
    }

    // The hellos bound the horizon the way a trace's last_submit_hint
    // does: greatest declared submit time plus one drain hour. Hello-less
    // stragglers (documents claimed before their hello) do not shape it;
    // an abandoned client that *did* hello keeps its declaration — the
    // loss fence already knows quarantined work cannot balance.
    sim::Time last_submit = 0;
    for (const auto& [name, client] : clients_) {
      if (!client.helloed) continue;
      last_submit = std::max(last_submit, client.hello.last_submit);
      report_.jobs_declared += client.hello.jobs;
    }
    report_.horizon = last_submit + sim::hours(1);
    report_.clients = hellos_;
    // The pump starts bounded at "nothing committed yet" (-1): every pull
    // happens through advance_to as watermarks arrive — the pump can never
    // read past what ingestion has guaranteed.
    replay_.emplace(options_.scenario, source_, report_.horizon,
                    core::kDefaultStreamChunk);
  }

  /// The serve loop: drain the ingest queue, admit through the DRR round,
  /// advance the simulation to what the clients have committed, checkpoint
  /// and publish — until every live stream is complete or a stop is
  /// requested.
  void serve() {
    clock_epoch_ns_ = monotonic_ns();
    last_stats_ns_ = clock_epoch_ns_;
    last_tele_ns_ = clock_epoch_ns_;
    // Per-tenant admission is live from here on.
    live_quota_ = true;
    for (std::uint64_t iteration = 0;; ++iteration) {
      check_ingest_alive();
      if (options_.stop && options_.stop->load(std::memory_order_relaxed)) {
        report_.interrupted = true;
        return;
      }
      if (options_.faults.fires(ServeFault::StallDrain, iteration,
                                report_.generation)) {
        // A starved serve loop: the queue fills behind it and backpressure
        // engages end to end. Latency, not loss.
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
      }
      apply_queued();
      // Tenants the ingest thread charged (parse failures) since last look.
      for (const std::string& tenant : shared_.tenants.over_threshold()) {
        poison_teardown(tenant);
      }
      drr_round();
      refresh_tenant_status();

      bool all_eof = true;
      bool any_live = false;
      sim::Time watermark = sim::kTimeMax;  // least non-eof watermark
      sim::Time frontier = 0;               // greatest watermark
      for (const auto& [name, client] : clients_) {
        // Abandoned streams no longer count toward completion; hello-less
        // stragglers never block it either — their documents stay
        // deferred, bounded by the in-flight quota.
        if (!client.helloed || shared_.tenants.abandoned(name)) continue;
        any_live = true;
        PS_CHECK_MSG(client.deferred.empty() || !client.eof,
                     "serve: sequence gap left behind an eof document");
        frontier = std::max(frontier, client.watermark);
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
        if (!wall_mode_ && any_live) {
          advance_to(std::min(frontier, report_.horizon));
        }
        maybe_checkpoint();
        return;
      }
      if (wall_mode_) {
        double elapsed_ms =
            static_cast<double>(monotonic_ns() - clock_epoch_ns_) / 1e6;
        // Clamped to the horizon in double, so no finite accel overflows
        // the cast.
        const double target = elapsed_ms * options_.accel;
        advance_to(target < static_cast<double>(report_.horizon)
                       ? static_cast<sim::Time>(target)
                       : report_.horizon);
      } else if (watermark > committed_ && watermark >= 0) {
        // Deterministic mode: chase the committed watermark, nothing more.
        advance_to(std::min(watermark, report_.horizon));
      }
      maybe_checkpoint();
      if (due(last_stats_ns_, options_.stats_interval_ms * 1'000'000)) {
        print_stats();
      }
      if (due(last_tele_ns_, options_.telemetry_seconds * 1'000'000'000)) {
        telemetry_publish();
      }
    }
  }

  /// Every client finished (or we were told to stop): no job will ever be
  /// pushed again. Close the stream, run out the drain hour, and finish
  /// the report.
  void drain() {
    sim::Simulator& simulator = replay_->simulator();
    core::SubmissionPump& pump = replay_->pump();
    {
      PS_TRACE_SPAN("serve.drain");
      source_.close();
      sim::Time finish =
          std::max(report_.horizon, source_.max_submit() + sim::hours(1));
      finish = std::max(finish, simulator.now());
      // One tick past `finish`: a lying watermark can have dragged the
      // pump's horizon all the way to `horizon` mid-run, and extend_horizon
      // is a no-op on an equal horizon — the post-close refill that lets
      // the pump observe the end of the stream would never run.
      pump.extend_horizon(finish + 1);
      simulator.run_until(finish);
      harvest_latency();
      PS_CHECK_MSG(pump.fully_drained(),
                   "serve: jobs were pushed but never replayed — horizon bug");
      publish_progress();
      stop_ingest();
    }
    report_.result = replay_->finish(simulator.now());
    report_.fingerprint = core::fingerprint(report_.result);
    report_.admitted = pump.submitted();
    report_.clamped = clamped_at_ckpt_ + source_.clamped();
    report_.peak_queue = shared_.queue.peak();
    report_.wall_ms = (monotonic_ns() - clock_epoch_ns_) / 1'000'000;
    report_.jobs_per_sec =
        report_.wall_ms > 0
            ? static_cast<double>(report_.admitted) * 1000.0 /
                  static_cast<double>(report_.wall_ms)
            : 0.0;
    if (!report_.interrupted &&
        util::list_files(quarantine_dir(options_.spool), ".reason").empty()) {
      // The loss fence: with no rejected work anywhere in the spool's
      // history, every declared job must have been admitted. Quarantined
      // documents break the balance by design (their jobs are counted in
      // quarantined_jobs, not lost silently). The sealed reason records
      // decide, never a registry counter the kill switch may have zeroed.
      PS_CHECK_MSG(report_.admitted == report_.jobs_declared,
                   "serve: admitted job count does not match the hellos");
    }
    // Fold this run's totals into the process-wide registry; the final
    // telemetry document (when enabled) then carries everything, latency
    // histogram included.
    sync_admitted();
    registry_.histogram("serve.latency_ms").merge(report_.latency);
    if (options_.telemetry_seconds > 0) telemetry_publish();
  }

  ServeReport take_report() { return std::move(report_); }

 private:
  /// Stops and joins the ingest thread; idempotent, and run on every exit
  /// path (a joinable thread in a destructor is std::terminate).
  void stop_ingest() {
    shared_.ingest_stop.store(true, std::memory_order_relaxed);
    shared_.queue.close();
    if (ingest_.joinable()) ingest_.join();
  }

  void check_ingest_alive() {
    if (!shared_.failed.load(std::memory_order_acquire)) return;
    stop_ingest();
    PS_CHECK_MSG(false, "serve ingest thread failed: " + shared_.failure);
  }

  /// Applies whatever the ingest thread queued (waiting up to one drain
  /// interval for the first document).
  void apply_queued() {
    batch_.clear();
    shared_.queue.pop_all(batch_, kDrainWaitMs);
    for (IngestDoc& doc : batch_) {
      if (doc.is_hello) {
        on_hello(std::move(doc.hello));
      } else {
        on_submission(std::move(doc));
      }
    }
  }

  void recover_journal_entry(const std::string& name,
                             const InboxName& decoded) {
    const std::string path = journal_ + "/" + name;
    if (decoded.hello) {
      Hello hello = parse_hello(util::read_file(path));
      PS_CHECK_MSG(hello.client == decoded.client,
                   "serve --recover: journaled hello does not match its name");
      // Cannot collide with live ingest: a hello lives in exactly one of
      // inbox/journal, and ingest has not started.
      on_hello(std::move(hello));
      return;
    }
    auto floor = compacted_.find(decoded.client);
    if (floor != compacted_.end() && decoded.seq < floor->second) {
      // Checkpointed but not yet pruned (crash inside the prune window):
      // the document already lives in a segment; finish the prune now.
      util::remove_file(path);
      c_pruned_.inc();
      return;
    }
    std::set<std::uint64_t>& tombstones = clients_[decoded.client].quarantined;
    if (tombstones.count(decoded.seq)) {
      // A consumed tombstone exists for this entry: the previous
      // generation crashed between writing the reason record and moving
      // the document. Finish the interrupted quarantine move.
      shared_.quarantine(journal_, decoded, "tombstone_sweep",
                         "journal entry superseded by a consumed tombstone");
      return;
    }
    try {
      Submission sub = parse_submission(util::read_file(path));
      if (sub.client != decoded.client || sub.seq != decoded.seq) {
        throw std::runtime_error(
            "journaled submission does not match its name");
      }
      recovered_subs_.push_back(std::move(sub));
    } catch (const std::exception& e) {
      // A rotted journal entry (the journal is server-owned, so this is
      // disk damage, not hostile input). Quarantine it with a consumed
      // tombstone so the stream replays around the gap; if a checkpoint
      // actually covered this seq, the history-fingerprint cross-check
      // still fails loudly — rot inside checkpointed history is genuinely
      // unrecoverable.
      shared_.quarantine(journal_, decoded, "parse_failure", e.what(), 0,
                         /*consumed=*/true);
      tombstones.insert(decoded.seq);
    }
  }

  /// Called after every consumed seq, so next_seq >= 1 here.
  static void check_fp(ClientState& client) {
    if (client.next_seq == client.expect_fp_at_seq) {
      // The replayed history reached the checkpoint's floor: any serde
      // drift, reordering or lost document diverges here, loudly, instead
      // of producing a silently different replay.
      PS_CHECK_MSG(client.history_fp == client.expect_fp,
                   "serve --recover: replayed history fingerprint does not "
                   "match the checkpoint");
      client.expect_fp_at_seq = 0;
    }
  }

  /// Quarantines a journaled submission the serve thread rejected unread
  /// (its seq stays open) and releases the in-flight slot it was charged.
  void reject(IngestDoc& doc, const char* why, const char* detail) {
    const Submission& sub = doc.submission;
    shared_.quarantine(journal_, {.client = sub.client, .seq = sub.seq}, why,
                       detail, sub.jobs.size());
    shared_.tenants.release(doc.charged);
  }

  /// Quarantines every pending document of a client whose tenant is
  /// poisoned; its stream no longer counts toward completion.
  void abandon(ClientState& client) {
    for (auto& [seq, doc] : client.deferred) {
      reject(doc, "tenant_poisoned", "pending document of an abandoned tenant");
    }
    client.deferred.clear();
  }

  /// Abandons a tenant: marks it poisoned (the ingest thread routes its
  /// future documents straight to quarantine, and a client that joins it
  /// later is abandoned at its hello) and abandons each of its clients.
  void poison_teardown(const std::string& tenant) {
    if (!shared_.tenants.poison(tenant)) return;
    shared_.q_poisoned.inc();
    for (auto& [name, client] : clients_) {
      if (shared_.tenants.tenant_of(name) == tenant) abandon(client);
    }
  }

  void on_hello(Hello&& hello) {
    const std::string cname = hello.client;
    ClientState& client = clients_[cname];
    // A duplicate hello cannot normally reach this thread (the journal
    // holds hellos for the daemon's lifetime, so the ingest duplicate
    // check catches republishes) — seeing one means the write-ahead
    // invariant broke.
    PS_CHECK_MSG(!client.helloed, "serve: duplicate hello from a client");
    const std::string tenant = hello.tenant;  // parse_hello fills it
    shared_.tenants.bind(cname, tenant);
    if (hellos_ >= options_.expect_clients) {
      // An unexpected extra client: structurally wrong, not transient.
      // Quarantine the hello and abandon its tenant outright.
      shared_.quarantine(journal_, {.client = cname, .hello = true},
                         "unexpected_client", "hello beyond --expect-clients");
      poison_teardown(tenant);
    } else {
      client.helloed = true;
      client.hello = std::move(hello);
      admitter_.add_tenant(tenant, client.hello.weight);
      ++hellos_;
    }
    if (shared_.tenants.abandoned(cname)) {
      // Joined (or is) an abandoned tenant: whatever it sent before this
      // hello quarantines with it.
      abandon(client);
    } else if (!client.deferred.empty()) {
      apply_ready(cname, client, /*enforce_quota=*/live_quota_);
    }
  }

  void on_submission(IngestDoc&& doc) {
    const Submission& sub = doc.submission;
    const std::string cname = sub.client;
    ClientState& client = clients_[cname];
    const std::string tenant = shared_.tenants.tenant_of(cname);
    const bool poisoned = shared_.tenants.abandoned(cname);
    const char* why = nullptr;
    const char* detail = nullptr;
    if (poisoned) {
      why = "tenant_poisoned";
      detail = "document from an abandoned tenant";
    } else if (client.eof) {
      why = "doc_after_eof";
      detail = "submission after the client's eof document";
    } else if (sub.seq < client.next_seq) {
      // The original already applied (or was consumed); this copy's
      // journal entry must not survive into a recovery replay.
      why = "seq_replayed";
      detail = "sequence number below the client's next_seq";
    }
    if (why != nullptr) {
      reject(doc, why, detail);
      if (!poisoned && shared_.tenants.charge_poison(tenant)) {
        poison_teardown(tenant);
      }
      return;
    }
    const std::uint64_t seq = sub.seq;
    bool inserted = client.deferred.emplace(seq, std::move(doc)).second;
    // Unreachable through the spool (same client+seq means the same inbox
    // name, and the ingest duplicate check quarantines the second copy),
    // so a violation here is an internal invariant break.
    PS_CHECK_MSG(inserted, "serve: duplicate sequence number from a client");
    if (client.helloed && !live_quota_) {
      // Hello phase / recovery replay: admit immediately, unthrottled.
      // Under the live loop admission waits for the DRR round.
      apply_ready(cname, client, /*enforce_quota=*/false);
    }
  }

  /// Consumes the client's contiguous sequence numbers: deferred documents
  /// apply (spending admit budget per document when `enforce_quota`, the
  /// live DRR path), consumed-quarantine tombstones are skipped over for
  /// free. Returns sequence numbers consumed, the DRR loop's progress
  /// signal.
  std::uint64_t apply_ready(const std::string& name, ClientState& client,
                            bool enforce_quota) {
    std::uint64_t progressed = 0;
    const std::string tenant = shared_.tenants.tenant_of(name);
    while (!shared_.tenants.abandoned(name)) {
      auto it = client.deferred.find(client.next_seq);
      if (client.quarantined.count(client.next_seq)) {
        if (it != client.deferred.end()) {
          // A republish under a consumed seq: the slot is spent.
          reject(it->second, "duplicate",
                 "republish of a quarantined sequence number");
          client.deferred.erase(it);
        }
      } else {
        if (it == client.deferred.end()) break;
        const std::uint64_t cost =
            std::max<std::uint64_t>(it->second.submission.jobs.size(), 1);
        if (enforce_quota && !admitter_.try_admit(tenant, cost)) break;
        IngestDoc doc = std::move(it->second);
        client.deferred.erase(it);
        shared_.tenants.release(doc.charged);
        apply(tenant, client, std::move(doc.submission));
      }
      ++client.next_seq;
      ++progressed;
      check_fp(client);
    }
    return progressed;
  }

  /// Applies the client's next in-order document. Its watermark/eof
  /// metadata always applies; a rejected payload quarantines and consumes
  /// the seq (a tombstone), so the stream is never wedged.
  void apply(const std::string& tenant, ClientState& client,
             Submission&& doc) {
    const char* why = nullptr;
    const char* detail = nullptr;
    if (doc.watermark < client.watermark) {
      why = "watermark_regressed";
      detail = "watermark below the client's previous document";
    } else if (!wall_mode_ && !doc.jobs.empty() &&
               std::ranges::min_element(doc.jobs, {}, &JobRequest::submit_time)
                       ->submit_time <= committed_) {
      // Deterministic mode cannot admit in the past; only a lying
      // watermark can steer the committed clock beyond a client's own
      // future jobs (honest streams keep jobs strictly above their own
      // watermark, which bounds the committed minimum). The watermark may
      // be the only honest part.
      why = "late_jobs";
      detail = "det-mode payload at or below the committed clock "
               "(watermark lie)";
    }
    client.watermark = std::max(client.watermark, doc.watermark);
    client.eof = doc.eof;
    if (why != nullptr) {
      client.quarantined.insert(doc.seq);
      shared_.quarantine(journal_, {.client = doc.client, .seq = doc.seq}, why,
                         detail, doc.jobs.size(), /*consumed=*/true);
      if (shared_.tenants.charge_poison(tenant)) poison_teardown(tenant);
      return;
    }
    client.history_fp = chain_submission(client.history_fp, doc);
    if (!doc.jobs.empty()) {
      const sim::Time last =
          std::ranges::max_element(doc.jobs, {}, &JobRequest::submit_time)
              ->submit_time;
      if (measure_latency_) {
        pending_latency_.push({last, doc.publish_ns,
                               static_cast<std::uint32_t>(doc.jobs.size())});
      }
      client.jobs += doc.jobs.size();
      source_.push(std::move(doc.jobs));
    }
    ++docs_applied_;
    c_docs_.inc();
  }

  /// Deficit-weighted round-robin admission: repeat cycles while any
  /// document admits, so throughput is work-conserving — the quotas shape
  /// *order* (each tenant bounded per cycle before others get their turn)
  /// and the window cap, not total rate. Only window-blocked tenants can be
  /// left backlogged here; they wait for the wall-clock window to roll.
  void drr_round() {
    while (true) {
      std::vector<std::string> backlogged;
      for (const auto& [name, client] : clients_) {
        if (!client.helloed || shared_.tenants.abandoned(name)) continue;
        if (client.quarantined.count(client.next_seq) ||
            client.deferred.count(client.next_seq)) {
          std::string tenant = shared_.tenants.tenant_of(name);
          if (std::ranges::find(backlogged, tenant) == backlogged.end()) {
            backlogged.push_back(std::move(tenant));
          }
        }
      }
      if (backlogged.empty()) break;
      admitter_.begin_cycle(monotonic_ns() / 1'000'000, backlogged);
      std::uint64_t progressed = 0;
      for (auto& [name, client] : clients_) {
        // apply_ready stops at once for an abandoned client.
        if (client.helloed) {
          progressed += apply_ready(name, client, /*enforce_quota=*/true);
        }
      }
      if (progressed == 0) break;
    }
    if (admitter_.window_deferrals() > deferrals_synced_) {
      c_deferrals_.inc(admitter_.window_deferrals() - deferrals_synced_);
      deferrals_synced_ = admitter_.window_deferrals();
    }
  }

  void refresh_tenant_status() {
    std::map<std::string, TenantStatus> rows;
    for (const auto& [name, client] : clients_) {
      if (!client.helloed && !shared_.tenants.abandoned(name)) continue;
      const std::string tenant = shared_.tenants.tenant_of(name);
      TenantStatus& row = rows[tenant];
      row.tenant = tenant;
      row.weight = admitter_.weight(tenant);
      row.window_jobs_left = admitter_.window_jobs_left(tenant);
      row.over_quota = admitter_.window_blocked(tenant);
    }
    shared_.tenants.set_rows(std::move(rows));
  }

  void advance_to(sim::Time target) {
    if (target <= replay_->simulator().now() && target <= committed_) return;
    PS_TRACE_SPAN("serve.advance");
    if (target > committed_) {
      committed_ = target;
      source_.commit_watermark(std::min(target, report_.horizon));
    }
    replay_->advance_to(
        std::min(std::max<sim::Time>(target, 0), report_.horizon));
    harvest_latency();
    publish_progress();
  }

  /// The progress the status document advertises.
  void publish_progress() {
    shared_.sim_time.store(replay_->simulator().now(),
                           std::memory_order_relaxed);
    shared_.admitted.store(replay_->pump().submitted(),
                           std::memory_order_relaxed);
  }

  void harvest_latency() {
    const sim::Time now = replay_->simulator().now();
    const std::int64_t now_ns = monotonic_ns();
    while (!pending_latency_.empty() && pending_latency_.top().due <= now) {
      const PendingLatency& entry = pending_latency_.top();
      double ms = static_cast<double>(now_ns - entry.publish_ns) / 1e6;
      for (std::uint32_t i = 0; i < entry.jobs; ++i) report_.latency.add(ms);
      pending_latency_.pop();
    }
  }

  void maybe_checkpoint() {
    if (options_.checkpoint_jobs == 0 && options_.checkpoint_seconds == 0) {
      return;
    }
    const std::uint64_t submitted = replay_->pump().submitted();
    // Progress-gated: an idle daemon (or one advancing over a quiet
    // stretch of simulated time) must not write a stream of identical
    // checkpoints.
    if (submitted == jobs_at_ckpt_ && docs_applied_ == docs_at_ckpt_) return;
    // `submitted >= jobs_at_ckpt_` guards the window right after recovery,
    // before the first advance re-submits the replayed history.
    bool due = options_.checkpoint_jobs > 0 && submitted >= jobs_at_ckpt_ &&
               submitted - jobs_at_ckpt_ >=
                   static_cast<std::uint64_t>(options_.checkpoint_jobs);
    due = due || (options_.checkpoint_seconds > 0 &&
                  replay_->simulator().now() - sim_at_ckpt_ >=
                      sim::seconds(options_.checkpoint_seconds));
    if (due) write_checkpoint();
  }

  /// Write order is the crash-safety argument (serve/journal.h): segment,
  /// then checkpoint, then journal prune — each durable before the next
  /// starts. A crash at any point leaves either the previous checkpoint
  /// with its full journal suffix, or the new checkpoint with an at-worst
  /// unpruned journal (recovery finishes the prune).
  void write_checkpoint() {
    PS_TRACE_SPAN("serve.checkpoint");
    const std::uint64_t seq = ckpt_next_seq_;
    if (options_.faults.fires(ServeFault::DieBeforeCheckpoint, seq,
                              report_.generation)) {
      util::emulate_sigkill();  // journal intact: recovery replays it all
    }
    Segment segment;
    segment.seq = seq;
    Checkpoint snapshot;
    snapshot.seq = seq;
    snapshot.committed = committed_;
    snapshot.admitted = replay_->pump().submitted();
    snapshot.docs = docs_applied_;
    // Clamp counts accumulate across generations: the live source only saw
    // the documents of *this* process, the checkpoint speaks for the
    // spool's whole history.
    snapshot.clamped = clamped_at_ckpt_ + source_.clamped();
    snapshot.scenario_checksum = scenario_checksum_;
    std::vector<std::string> prune;
    for (const auto& [name, client] : clients_) {
      // A client that never helloed has no checkpointable identity (the
      // recovery cross-check would demand its hello); its journal entries
      // simply persist and replay deferred again next generation.
      if (!client.helloed) continue;
      snapshot.clients.push_back({.name = name,
                                  .hello_jobs = client.hello.jobs,
                                  .hello_last_submit = client.hello.last_submit,
                                  .next_seq = client.next_seq,
                                  .watermark = client.watermark,
                                  .eof = client.eof,
                                  .admitted_jobs = client.jobs,
                                  .history_fp = client.history_fp});
      auto floor = compacted_.find(name);
      std::uint64_t from = floor != compacted_.end() ? floor->second : 0;
      for (std::uint64_t s = from; s < client.next_seq; ++s) {
        // Consumed-tombstoned seqs have no journal entry (their documents
        // moved to quarantine); the tombstone itself is the durable record
        // the next recovery replays around.
        if (client.quarantined.count(s)) continue;
        std::string file = submission_file_name(name, s);
        segment.docs.push_back(
            parse_submission(util::read_file(journal_ + "/" + file)));
        prune.push_back(std::move(file));
      }
    }
    snapshot.sketch = report_.latency;
    // 1. Segment, durable. A stale seg-<seq> from a crashed predecessor is
    //    simply overwritten — only a sealed ckpt-<seq> makes it reachable.
    util::write_file_atomic(ckpt_dir_ + "/" + segment_file_name(seq),
                            serialize_segment(segment), /*durable=*/true);
    // 2. Checkpoint, durable — the commit point of the compaction.
    const std::string ckpt_path = ckpt_dir_ + "/" + checkpoint_file_name(seq);
    std::string doc = serialize_checkpoint(snapshot);
    if (options_.faults.fires(ServeFault::TornCheckpoint, seq,
                              report_.generation)) {
      // Torn write under the final name: the seal fails at parse time and
      // recovery skips backward to the previous checkpoint, whose journal
      // suffix is still intact (the prune below never ran).
      util::write_file_atomic(ckpt_path, doc.substr(0, doc.size() / 2),
                              /*durable=*/true);
      util::emulate_sigkill();
    }
    util::write_file_atomic(ckpt_path, doc, /*durable=*/true);
    if (options_.faults.fires(ServeFault::DieAfterCheckpoint, seq,
                              report_.generation)) {
      util::emulate_sigkill();  // prune unfinished: recovery finishes it
    }
    // 3. Prune the compacted journal suffix.
    for (const std::string& file : prune) {
      util::remove_file(journal_ + "/" + file);
      c_pruned_.inc();
    }
    for (const auto& [name, client] : clients_) {
      compacted_[name] = client.next_seq;
    }
    ckpt_next_seq_ = seq + 1;
    c_checkpoints_.inc();
    jobs_at_ckpt_ = snapshot.admitted;
    docs_at_ckpt_ = docs_applied_;
    sim_at_ckpt_ = replay_->simulator().now();
  }

  /// True, and re-armed, once `interval_ns` (> 0) has passed since
  /// `last_ns`: the wall-clock pacing of the stderr and telemetry ticks.
  static bool due(std::int64_t& last_ns, std::int64_t interval_ns) {
    const std::int64_t now_ns = monotonic_ns();
    if (interval_ns <= 0 || now_ns - last_ns < interval_ns) return false;
    last_ns = now_ns;
    return true;
  }

  void print_stats() {
    std::fprintf(stderr,
                 "ps-serve: sim=%s admitted=%llu queue=%zu p50=%.2fms "
                 "p99=%.2fms%s\n",
                 strings::human_duration_ms(replay_->simulator().now()).c_str(),
                 static_cast<unsigned long long>(replay_->pump().submitted()),
                 shared_.queue.size(), report_.latency.quantile(0.5),
                 report_.latency.quantile(0.99),
                 shared_.accepting.load(std::memory_order_relaxed)
                     ? ""
                     : " [backpressure]");
  }

  void sync_admitted() {
    const std::uint64_t total = replay_->pump().submitted();
    if (total > admitted_synced_) {
      c_admitted_.inc(total - admitted_synced_);
      admitted_synced_ = total;
    }
  }

  /// Wall-clock-paced publication of sealed registry snapshots into
  /// <spool>/telemetry/ (the obs/registry.h wire format). Snapshots carry
  /// both clock domains: sim_time_ms from the simulation clock, wall/mono
  /// stamps taken at snapshot time. Pure observation: nothing here feeds
  /// back into the replay, so telemetry on/off cannot move the fingerprint
  /// (the fence of tests/serve_telemetry_test.cc).
  void telemetry_publish() {
    sync_admitted();
    g_queue_.set(static_cast<double>(shared_.queue.size()));
    g_accepting_.set(
        shared_.accepting.load(std::memory_order_relaxed) ? 1.0 : 0.0);
    if (report_.latency.count() > 0) {
      g_p50_.set(report_.latency.quantile(0.5));
      g_p99_.set(report_.latency.quantile(0.99));
    }
    obs::Snapshot snap =
        registry_.snapshot(/*sim_time_ms=*/replay_->simulator().now());
    snap.seq = ++tele_seq_;
    util::write_file_atomic(
        options_.spool + "/telemetry/" +
            strings::format("tele-%08llu.tel",
                            static_cast<unsigned long long>(tele_seq_)),
        obs::serialize_snapshot(snap), /*durable=*/false);
  }

  const ServeOptions& options_;
  const std::string accepted_;
  const std::string journal_;
  const std::string ckpt_dir_;
  const bool wall_mode_;
  /// The scenario flags are baked into every checkpoint: a recovery with a
  /// different cluster/policy would deterministically diverge from the
  /// journaled history, so it is rejected instead of replayed.
  const std::uint64_t scenario_checksum_;
  /// Its counters are the run's window onto the registry, so it is
  /// constructed before anything is counted.
  ServeReport report_;
  // Registered up front, so every telemetry document lists them.
  obs::Registry& registry_ = obs::Registry::global();
  obs::Counter& c_docs_ = registry_.counter("serve.docs");
  obs::Counter& c_admitted_ = registry_.counter("serve.jobs_admitted");
  obs::Counter& c_checkpoints_ = registry_.counter("serve.checkpoints");
  obs::Counter& c_ckpt_skipped_ =
      registry_.counter("serve.checkpoints_skipped");
  obs::Counter& c_pruned_ = registry_.counter("serve.journal_pruned");
  obs::Counter& c_recovered_docs_ = registry_.counter("serve.recovered_docs");
  obs::Counter& c_recovered_jobs_ = registry_.counter("serve.recovered_jobs");
  obs::Counter& c_deferrals_ =
      registry_.counter("serve.quota.window_deferrals");
  obs::Gauge& g_queue_ = registry_.gauge("serve.queue_depth");
  obs::Gauge& g_accepting_ = registry_.gauge("serve.accepting");
  obs::Gauge& g_p50_ = registry_.gauge("serve.latency_p50_ms");
  obs::Gauge& g_p99_ = registry_.gauge("serve.latency_p99_ms");

  // Phase A's durable history, consumed by await_hellos / replay_history.
  std::optional<Checkpoint> ckpt_;
  std::vector<Submission> recovered_subs_;
  std::map<std::string, std::uint64_t> compacted_;  // client -> journal floor

  Shared shared_;
  std::vector<IngestDoc> batch_;

  workload::LiveJobSource source_;
  std::map<std::string, ClientState> clients_;
  std::priority_queue<PendingLatency, std::vector<PendingLatency>,
                      std::greater<PendingLatency>>
      pending_latency_;
  int hellos_ = 0;
  /// Documents applied: control state for checkpoint gating and the
  /// checkpointed cumulative count — deliberately not the registry
  /// counter, which the kill switch may zero.
  std::uint64_t docs_applied_ = 0;
  /// False while the recovered history replays: those documents' publish
  /// timestamps belong to a previous process.
  bool measure_latency_ = true;
  /// Deficit-weighted round-robin admission (serve/fair.h). Inactive until
  /// the serve loop starts: the hello phase and recovery replay admit
  /// unthrottled (recovered history was already admitted once).
  FairAdmitter admitter_;
  bool live_quota_ = false;
  /// The admitter's monotone deferral count already folded into the
  /// registry.
  std::uint64_t deferrals_synced_ = 0;
  sim::Time committed_ = -1;

  std::optional<core::Replay> replay_;

  // Checkpoint cadence state (restored from the recovered checkpoint).
  std::uint64_t ckpt_next_seq_ = 0;
  std::uint64_t jobs_at_ckpt_ = 0;
  std::uint64_t docs_at_ckpt_ = 0;
  sim::Time sim_at_ckpt_ = 0;
  std::uint64_t clamped_at_ckpt_ = 0;

  std::int64_t clock_epoch_ns_ = 0;
  std::int64_t last_stats_ns_ = 0;
  std::int64_t last_tele_ns_ = 0;
  std::uint64_t tele_seq_ = 0;
  std::uint64_t admitted_synced_ = 0;

  /// Declared last: it runs against the members above and is joined (by
  /// stop_ingest) before any of them is destroyed.
  std::thread ingest_;
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
  core::check_single_cap(options.scenario);
  Daemon daemon(options);
  daemon.recover_history();
  daemon.start_ingest();
  if (daemon.await_hellos()) {
    daemon.replay_history();
    daemon.serve();
    daemon.drain();
  }
  return daemon.take_report();
}

std::string format_report(const ServeReport& report) {
  // Report key -> registry counter: these lines are the run's deltas.
  static constexpr std::pair<const char*, const char*> kCounters[] = {
      {"docs", "serve.docs"},
      {"backpressure_stalls", "serve.backpressure_stalls"},
      {"recovered_docs", "serve.recovered_docs"},
      {"recovered_jobs", "serve.recovered_jobs"},
      {"checkpoints", "serve.checkpoints"},
      {"checkpoints_skipped", "serve.checkpoints_skipped"},
      {"journal_pruned", "serve.journal_pruned"},
      {"quarantined_docs", "serve.quarantine.docs"},
      {"quarantined_jobs", "serve.quarantine.jobs"},
      {"poisoned_tenants", "serve.quarantine.poisoned_tenants"},
      {"quota_deferrals", "serve.quota.window_deferrals"},
      {"inflight_holds", "serve.quota.inflight_holds"},
      {"slow_start_holds", "serve.slow_start.holds"},
  };
  std::string out;
  auto line = [&](const char* key, const std::string& value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  };
  auto u64 = [](std::uint64_t value) {
    return strings::format("%llu", static_cast<unsigned long long>(value));
  };
  auto fixed3 = [](double value) { return strings::format("%.3f", value); };
  line("serve_report", "v1");
  line("clients", strings::format("%d", report.clients));
  line("jobs_declared", u64(report.jobs_declared));
  line("admitted", u64(report.admitted));
  line("clamped", u64(report.clamped));
  line("peak_queue", strings::format("%zu", report.peak_queue));
  line("horizon_ms",
       strings::format("%lld", static_cast<long long>(report.horizon)));
  line("wall_ms",
       strings::format("%lld", static_cast<long long>(report.wall_ms)));
  line("jobs_per_sec", fixed3(report.jobs_per_sec));
  line("latency_count", u64(report.latency.count()));
  line("latency_p50_ms", fixed3(report.latency.quantile(0.5)));
  line("latency_p95_ms", fixed3(report.latency.quantile(0.95)));
  line("latency_p99_ms", fixed3(report.latency.quantile(0.99)));
  line("latency_max_ms", fixed3(report.latency.max()));
  line("completed_jobs", u64(report.result.summary.completed_jobs));
  line("generation", u64(report.generation));
  for (const auto& [key, name] : kCounters) {
    line(key, u64(report.counters.delta(name)));
  }
  line("interrupted", report.interrupted ? "1" : "0");
  line("fingerprint", util::hex64_token(report.fingerprint));
  return out;
}

}  // namespace ps::serve
