#include "serve/ingest.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "serve/journal.h"
#include "serve/quarantine.h"
#include "util/check.h"
#include "util/spool.h"

namespace ps::serve {

void Shared::quarantine(const std::string& dir, const InboxName& doc,
                        const char* why, const std::string& detail,
                        std::uint64_t jobs, bool consumed) {
  const QuarantineReason reason{
      .client = doc.client,
      .seq = doc.hello ? -1 : static_cast<std::int64_t>(doc.seq),
      .kind = doc.hello ? "hello" : "submission",
      .reason = why,
      .detail = detail,
      .consumed = consumed,
      .generation = generation,
      .jobs = jobs,
      .wall_ns = monotonic_ns()};
  const std::string name =
      doc.hello ? hello_file_name(doc.client)
                : submission_file_name(doc.client, doc.seq);
  const std::string dest =
      quarantine_dir(spool) + "/" +
      quarantine_file_name(
          generation,
          quarantine_ordinal_.fetch_add(1, std::memory_order_relaxed), name);
  // Verdict first, evidence second. The reason record is the commit point:
  // for a consumed tombstone, a crash after the journal entry moved but
  // before the tombstone landed would leave a sequence gap recovery can
  // never fill — a deadlock. Written this way, the worst crash window
  // leaves both the tombstone and the journal entry, and recovery finishes
  // the interrupted move when the tombstone consumes the seq.
  util::write_file_atomic(dest + ".reason",
                          serialize_quarantine_reason(reason),
                          /*durable=*/true);
  util::retire_file(dir + "/" + name, dest, /*durable=*/true);
  q_docs.inc();
  q_jobs.inc(jobs);
}

namespace {

constexpr std::int64_t kPollMs = 5;             ///< idle poll interval
constexpr std::int64_t kStatusIntervalMs = 50;  ///< status document refresh

/// List -> claim -> parse -> journal -> push. A full queue stops the
/// claiming (the inbox is the durable overflow buffer); nothing is ever
/// discarded. Every claimed document is retired into the write-ahead
/// journal *before* it can be pushed — SIGKILL between any two
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
class Ingest {
 public:
  Ingest(const ServeOptions& options, Shared& shared)
      : options_(options),
        shared_(shared),
        inbox_(inbox_dir(options.spool)),
        accepted_(accepted_dir(options.spool)),
        journal_(journal_dir(options.spool)),
        window_ns_(std::max<std::int64_t>(options.quotas.window_ms, 1) *
                   1'000'000) {}

  void run() {
    std::int64_t last_status_ns = 0;
    while (!stopping()) {
      if (!claim_pass()) return;
      bool accepting = !queue_full_ && !slow_held_ &&
                       backlog_ <= options_.inbox_high_water;
      bool changed =
          shared_.accepting.exchange(accepting, std::memory_order_relaxed) !=
          accepting;
      std::int64_t now_ns = monotonic_ns();
      if (changed || now_ns - last_status_ns >= kStatusIntervalMs * 1'000'000) {
        publish_status();
        last_status_ns = now_ns;
      }
      if (backlog_ == 0 || quota_held_ || slow_held_) {
        // Idle, or everything claimable is gated: poll instead of spinning.
        std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
      }
    }
    // Final status: the daemon is draining; nothing further will be claimed.
    shared_.accepting.store(false, std::memory_order_relaxed);
    publish_status();
  }

 private:
  using Listed = std::pair<std::string, InboxName>;

  bool stopping() const {
    return shared_.ingest_stop.load(std::memory_order_relaxed);
  }

  void publish_status() {
    Status status;
    status.accepting = shared_.accepting.load(std::memory_order_relaxed);
    status.seq = ++status_seq_;
    status.sim_time = shared_.sim_time.load(std::memory_order_relaxed);
    status.admitted = shared_.admitted.load(std::memory_order_relaxed);
    status.slow_start = shared_.slow_start.load(std::memory_order_relaxed);
    status.tenants = shared_.tenants.rows();
    // Heartbeat-grade data: atomic for live readers, not crash-durable.
    util::write_file_atomic(status_path(options_.spool),
                            serialize_status(status), /*durable=*/false);
  }

  /// One pass over the inbox listing. False = stop ingesting entirely
  /// (shutdown or a closed queue).
  bool claim_pass() {
    backlog_ = 0;
    queue_full_ = quota_held_ = slow_held_ = false;
    // Group the inbox by client: hellos first (tiny, and they carry the
    // tenant mapping everything below bills against). list_files returns
    // sorted names, so each per-client vector is already in seq order and
    // the journal keeps its per-client-prefix property.
    std::vector<Listed> hellos;
    std::map<std::string, std::vector<Listed>> per_client;
    for (const std::string& name : util::list_files(inbox_)) {
      std::optional<InboxName> decoded = parse_inbox_name(name);
      if (!decoded) continue;  // tmp litter from in-flight publishes
      ++backlog_;
      if (decoded->hello) {
        hellos.emplace_back(name, *decoded);
      } else {
        per_client[decoded->client].emplace_back(name, *decoded);
      }
    }
    for (const auto& [name, decoded] : hellos) {
      if (!pump_doc(name, decoded)) return false;
    }
    std::map<std::string, std::size_t> cursor;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (const auto& [client, docs] : per_client) {
        if (stopping()) return true;
        std::size_t& at = cursor[client];
        if (at >= docs.size()) continue;
        if (shared_.tenants.at_quota(client, options_.tenant_inflight_docs)) {
          // Over quota: hold the rest of this client's backlog in the
          // inbox until the serve loop admits what is already claimed.
          if (!quota_held_) {
            quota_held_ = true;
            shared_.inflight_holds.inc();
          }
          at = docs.size();
          continue;
        }
        if (slow_start_blocks()) {
          if (!slow_held_) {
            slow_held_ = true;
            shared_.slow_holds.inc();
          }
          return true;
        }
        const auto& [name, decoded] = docs[at];
        ++at;
        if (!pump_doc(name, decoded)) return false;
        progressed = true;
      }
    }
    return true;
  }

  /// True while the post-recovery slow-start ramp refuses further claims
  /// this window (windows are wall-clock, shared with the quota window
  /// length so one knob tunes both).
  bool slow_start_blocks() {
    constexpr std::uint64_t kSlowStartUncap = 1u << 20;
    if (!shared_.slow_start.load(std::memory_order_relaxed)) return false;
    const std::int64_t widx = (monotonic_ns() - slow_epoch_ns_) / window_ns_;
    if (widx != slow_window_) {
      slow_window_ = widx;
      slow_claimed_ = 0;
      slow_allowance_ = std::max<std::uint64_t>(options_.slow_start_docs, 1);
      for (std::int64_t i = 0;
           i < widx && slow_allowance_ < kSlowStartUncap; ++i) {
        slow_allowance_ <<= 1;
      }
      if (slow_allowance_ >= kSlowStartUncap) {
        shared_.slow_start.store(false, std::memory_order_relaxed);
        return false;
      }
    }
    return slow_claimed_++ >= slow_allowance_;
  }

  /// One claim+parse+journal+push. False = stop ingesting entirely
  /// (shutdown or a closed queue).
  bool pump_doc(const std::string& name, const InboxName& decoded) {
    if (stopping()) return false;
    PS_TRACE_SPAN("serve.ingest.doc");
    std::string tenant = shared_.tenants.tenant_of(decoded.client);
    const std::string src = accepted_ + "/" + name;
    if (!util::claim_file(inbox_ + "/" + name, src, claim_options_)) {
      return true;  // vanished: only possible if an operator intervened
    }
    shared_.ingest_claims.inc();
    if (shared_.tenants.abandoned(decoded.client)) {
      shared_.quarantine(accepted_, decoded, "tenant_poisoned",
                         "document from an abandoned tenant");
      return true;
    }
    const std::string text = util::read_file(src);
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
      shared_.quarantine(accepted_, decoded, "parse_failure", e.what());
      shared_.tenants.charge_poison(tenant);
      return true;
    }
    const std::string journaled = journal_ + "/" + name;
    if (util::path_exists(journaled)) {
      // Already admitted into the write-ahead history: duplicate.
      shared_.quarantine(accepted_, decoded, "duplicate",
                         "journal already holds this document",
                         doc.submission.jobs.size());
      return true;
    }
    const std::uint64_t ordinal = claims_++;
    if (options_.faults.fires(ServeFault::StallIngest, ordinal,
                              shared_.generation)) {
      // Slow disk / NFS stall: the claim is held, the pipeline keeps
      // running on what it already has. Latency, not loss.
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    // Write-ahead: journal the claimed document before its jobs can enter
    // the pipeline. A lost rename race (ENOENT) means the document is
    // already journaled — e.g. the recovery sweep of a previous generation
    // retired it between our claim and this retire — which is success, not
    // a fault; anything else is a real I/O failure and the retire has
    // already thrown.
    if (!util::retire_file(src, journaled, options_.journal_fsync)) {
      PS_CHECK_MSG(
          util::path_exists(journaled),
          "serve ingest: claimed document vanished before it was journaled");
    }
    shared_.ingest_journaled.inc();
    if (!doc.is_hello) {
      shared_.tenants.charge(tenant);
      doc.charged = std::move(tenant);
    }
    if (options_.faults.fires(ServeFault::DieAfterClaim, ordinal,
                              shared_.generation)) {
      util::emulate_sigkill();  // journaled, never applied: recovery replays it
    }
    return push(std::move(doc));
  }

  /// Backpressure: a full queue holds this document (claimed, so no other
  /// reader can take it) and retries, flipping the gate so clients back
  /// off. False = the queue closed or ingest is stopping.
  bool push(IngestDoc&& doc) {
    while (!shared_.queue.try_push(std::move(doc))) {
      if (shared_.queue.closed()) return false;
      queue_full_ = true;
      shared_.stalls.inc();
      shared_.accepting.store(false, std::memory_order_relaxed);
      publish_status();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (stopping()) return false;
    }
    return true;
  }

  const ServeOptions& options_;
  Shared& shared_;
  const std::string inbox_;
  const std::string accepted_;
  const std::string journal_;
  // Local spool, polled at millisecond rate.
  const util::SpoolOptions claim_options_{.durable = false,
                                          .claim_backoff_max_ms = 8};
  std::uint64_t status_seq_ = 0;
  /// Daemon-lifetime claim ordinal — the fault-site id of the ingest sites,
  /// so a chaos plan can target "the Nth claim of any generation".
  std::uint64_t claims_ = 0;

  // Slow-start ramp state.
  const std::int64_t window_ns_;
  const std::int64_t slow_epoch_ns_ = monotonic_ns();
  std::int64_t slow_window_ = -1;
  std::uint64_t slow_allowance_ = 0;
  std::uint64_t slow_claimed_ = 0;

  // What the current pass saw, for the status gate and the idle poll.
  std::size_t backlog_ = 0;
  bool queue_full_ = false;
  bool quota_held_ = false;
  bool slow_held_ = false;
};

}  // namespace

void run_ingest(const ServeOptions& options, Shared& shared) {
  try {
    Ingest(options, shared).run();
  } catch (const std::exception& e) {
    shared.failure = e.what();
    shared.failed.store(true, std::memory_order_release);
    shared.queue.close();  // wakes the serve thread immediately
  }
}

}  // namespace ps::serve
