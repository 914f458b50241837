// The ps-serve ingest thread and the one `Shared` it has with the serve
// loop (serve/server.h, docs/ARCHITECTURE.md "Live service"): the queue,
// progress atomics, counters, the quarantine path, and the `TenantBook`
// that owns all cross-thread tenant state behind the daemon's one mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/bounded_queue.h"
#include "util/check.h"

namespace ps::serve {

/// One claimed inbox document, either kind.
struct IngestDoc {
  bool is_hello = false;
  Hello hello;
  Submission submission;
  /// The tenant the submission's in-flight slot was charged to. The slot
  /// is released against this name whatever the client's hello declares
  /// later; empty = nothing was charged (hellos, recovered documents).
  std::string charged;
};

/// Cross-thread tenant state: client -> tenant, in-flight counts, poison
/// scores, the poisoned set and the status rows. The ingest thread
/// consults quotas before claiming and routes a poisoned tenant's claims
/// to quarantine; the serve thread owns every decision and refreshes the
/// status rows. Each method is one short critical section — never I/O.
class TenantBook {
 public:
  /// Poison documents a tenant may send before it is abandoned; 0 = never.
  explicit TenantBook(std::uint64_t poison_threshold)
      : threshold_(poison_threshold) {}

  /// The tenant a client bills to: the hello's declaration once the serve
  /// thread has applied it, the client's own name before that.
  std::string tenant_of(const std::string& client) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tenant_locked(client);
  }
  void bind(const std::string& client, const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex_);
    tenant_of_[client] = tenant;
  }

  /// True when the client's tenant holds `limit` claimed-but-unapplied
  /// documents (0 = unlimited). A poisoned tenant is never held: its
  /// documents go straight to quarantine.
  bool at_quota(const std::string& client, std::uint64_t limit) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string& tenant = tenant_locked(client);
    return limit > 0 && !poisoned_.count(tenant) &&
           inflight_locked(tenant) >= limit;
  }
  void charge(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++inflight_[tenant];
  }
  /// Releases a slot against the tenant it was charged to; "" = none was.
  void release(const std::string& tenant) {
    if (tenant.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t& count = inflight_[tenant];
    PS_CHECK_MSG(count > 0, "serve: in-flight slot released uncharged");
    --count;
  }

  /// Charges one poison document to the tenant; true once its score has
  /// reached the threshold (the serve thread then abandons the tenant).
  bool charge_poison(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++poison_score_[tenant] >= threshold_ && threshold_ > 0;
  }
  /// Tenants at the threshold that are not poisoned yet.
  std::vector<std::string> over_threshold() const {
    std::vector<std::string> over;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [tenant, score] : poison_score_) {
      if (threshold_ > 0 && score >= threshold_ && !poisoned_.count(tenant)) {
        over.push_back(tenant);
      }
    }
    return over;
  }
  /// Marks the tenant poisoned; false if it already was.
  bool poison(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex_);
    return poisoned_.insert(tenant).second;
  }
  /// A client is abandoned exactly when its tenant is poisoned — also a
  /// client that joins the tenant after it was poisoned.
  bool abandoned(const std::string& client) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return poisoned_.count(tenant_locked(client)) > 0;
  }

  /// Replaces the status rows (one per tenant), stamping each with its
  /// in-flight count and poisoned bit.
  void set_rows(std::map<std::string, TenantStatus>&& rows) {
    std::lock_guard<std::mutex> lock(mutex_);
    rows_.clear();
    for (auto& [tenant, row] : rows) {
      row.inflight_docs = inflight_locked(tenant);
      row.poisoned = poisoned_.count(tenant) > 0;
      rows_.push_back(std::move(row));
    }
  }
  std::vector<TenantStatus> rows() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rows_;
  }

 private:
  const std::string& tenant_locked(const std::string& client) const {
    auto it = tenant_of_.find(client);
    return it == tenant_of_.end() ? client : it->second;
  }
  std::uint64_t inflight_locked(const std::string& tenant) const {
    auto it = inflight_.find(tenant);
    return it == inflight_.end() ? 0 : it->second;
  }

  const std::uint64_t threshold_;
  mutable std::mutex mutex_;
  std::map<std::string, std::string> tenant_of_;
  std::map<std::string, std::uint64_t> inflight_;
  std::map<std::string, std::uint64_t> poison_score_;
  std::set<std::string> poisoned_;
  std::vector<TenantStatus> rows_;
};

/// State the ingest thread shares with the serve loop.
struct Shared {
  explicit Shared(const ServeOptions& options)
      : spool(options.spool),
        queue(options.queue_capacity),
        tenants(options.poison_threshold) {}

  /// The one quarantine path (serve/quarantine.h): moves the document
  /// `doc` names out of `dir` (accepted/ or journal/) and writes its sealed
  /// reason record, stamped with this generation and the next ordinal, both
  /// durable; then counts it. A missing source still gets its record (the
  /// tombstone is what recovery needs). `consumed` marks the seq spent.
  void quarantine(const std::string& dir, const InboxName& doc,
                  const char* why, const std::string& detail,
                  std::uint64_t jobs = 0, bool consumed = false);

  const std::string spool;
  util::BoundedQueue<IngestDoc> queue;
  TenantBook tenants;
  std::atomic<bool> ingest_stop{false};
  std::atomic<bool> accepting{true};
  std::atomic<std::int64_t> sim_time{0};
  std::atomic<std::uint64_t> admitted{0};
  /// Post-recovery slow start still ramping (advertised in the status
  /// document so well-behaved clients hold their floods back).
  std::atomic<bool> slow_start{false};
  /// Daemon generation (epoch counter) — the fault-site `attempt`.
  std::uint64_t generation = 0;

  /// Registry-homed counters (obs/registry.h): the report's backpressure
  /// figure is the run's delta of `stalls`; the claim and journal counters
  /// are telemetry-only; the rest count overload hardening
  /// (serve/quarantine.h, serve/fair.h).
  obs::Counter& stalls = counter("serve.backpressure_stalls");
  obs::Counter& ingest_claims = counter("serve.ingest.claims");
  obs::Counter& ingest_journaled = counter("serve.ingest.journaled");
  obs::Counter& q_docs = counter("serve.quarantine.docs");
  obs::Counter& q_jobs = counter("serve.quarantine.jobs");
  obs::Counter& q_poisoned = counter("serve.quarantine.poisoned_tenants");
  obs::Counter& inflight_holds = counter("serve.quota.inflight_holds");
  obs::Counter& slow_holds = counter("serve.slow_start.holds");

  /// Set when the ingest thread dies on an exception (corrupt document,
  /// I/O failure); the serve thread rethrows it as its own failure.
  /// `failure` is written once, before the release store of `failed`, and
  /// read only after an acquire load sees it set.
  std::atomic<bool> failed{false};
  std::string failure;

 private:
  static obs::Counter& counter(const char* name) {
    return obs::Registry::global().counter(name);
  }
  /// Names quarantined documents uniquely within a generation.
  std::atomic<std::uint64_t> quarantine_ordinal_{0};
};

/// The ingest thread's body: list -> claim -> parse -> journal -> push,
/// until `shared.ingest_stop` is set or the queue closes. An exception
/// is recorded in `shared.failed`/`failure` and closes the queue.
void run_ingest(const ServeOptions& options, Shared& shared);

}  // namespace ps::serve
