// Deficit-weighted round-robin admission scheduling across tenants — the
// fairness core of the overload-hardened serve loop (serve/server.h).
//
// The problem: one flooding client can fill the ingest queue and the
// reassembly buffers so fast that every admit pass is spent on its
// documents, starving the other tenants' admission latency (their jobs
// are *eventually* admitted — nothing is dropped — but "eventually" is
// unbounded under flood). Classic deficit round robin fixes this: each
// admit cycle credits every backlogged tenant `quantum * weight` job
// units of deficit; admitting a document costs its job count; a tenant
// whose next document exceeds its deficit waits for the next cycle while
// the others spend theirs. Throughput under contention converges to the
// weight ratio; an uncontended tenant is never throttled (its deficit
// replenishes faster than it spends).
//
// Layered on top: a per-tenant jobs-per-window quota (wall-clock window).
// Where DRR shapes *relative* shares, the window quota bounds the
// *absolute* admission rate of any single tenant — the knob an operator
// sets so a tenant's burst cannot monopolize a recovering daemon.
//
// Determinism: the admitter schedules *admission work*, never sim-time
// semantics. A deferred document keeps its client's watermark unchanged,
// the serve loop never advances the simulation past an unadmitted
// watermark, and the LiveJobSource releases jobs in (submit_time, id)
// order regardless of push order — so quotas and fairness reorder wall
// clock work without moving the deterministic fingerprint (the fence of
// tests/serve_fairness_test.cc).
//
// The admitter holds no documents and touches no I/O — it is pure
// bookkeeping over (tenant, cost) pairs, which is what makes it
// benchmarkable in isolation (BM_ServeFairAdmit).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ps::serve {

struct TenantQuotaOptions {
  /// Deficit credited per weight unit per admit cycle, in jobs.
  std::uint64_t quantum_jobs = 256;
  /// Wall-clock quota window. Also the slow-start ramp window.
  std::int64_t window_ms = 100;
  /// Jobs a tenant may be admitted per window. 0 = unlimited.
  std::uint64_t window_jobs = 0;
};

class FairAdmitter {
 public:
  FairAdmitter() = default;
  explicit FairAdmitter(const TenantQuotaOptions& options)
      : options_(options) {}

  /// Registers (or re-weights) a tenant. Repeat registrations keep the
  /// greatest weight seen — clients of one tenant may declare different
  /// weights and the tenant gets the most generous one.
  void add_tenant(const std::string& tenant, std::uint64_t weight);

  /// Starts an admit cycle at wall time `now_ms`: rolls the quota window
  /// when it elapsed, then credits `quantum * weight` deficit to every
  /// tenant in `backlogged` (tenants with an admissible document waiting).
  /// Tenants not backlogged have their deficit reset — DRR's guard
  /// against hoarding credit while idle. Window-blocked tenants are not
  /// credited (their deficit must not balloon while the quota holds them).
  void begin_cycle(std::int64_t now_ms,
                   const std::vector<std::string>& backlogged);

  /// Spends `cost` jobs from the tenant's deficit and window budget.
  /// False = defer this document (insufficient deficit this cycle, or
  /// window quota exhausted — the latter also counts a window deferral,
  /// once per tenant per cycle).
  bool try_admit(const std::string& tenant, std::uint64_t cost);

  /// True iff the tenant's window quota is currently exhausted (what the
  /// status document advertises as over_quota).
  bool window_blocked(const std::string& tenant) const;

  /// Jobs left in the tenant's current window; -1 when unlimited.
  std::int64_t window_jobs_left(const std::string& tenant) const;

  std::uint64_t weight(const std::string& tenant) const;

  /// Window-quota deferrals since construction (monotone; the serve loop
  /// publishes the delta through the obs registry).
  std::uint64_t window_deferrals() const { return window_deferrals_; }

 private:
  struct Tenant {
    std::uint64_t weight = 1;
    std::int64_t deficit = 0;
    std::uint64_t window_admitted = 0;
    bool deferred_this_cycle = false;
  };

  TenantQuotaOptions options_;
  std::map<std::string, Tenant> tenants_;
  std::int64_t window_index_ = -1;
  std::uint64_t window_deferrals_ = 0;
};

}  // namespace ps::serve
