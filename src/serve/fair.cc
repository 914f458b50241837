#include "serve/fair.h"

#include <algorithm>

#include "util/check.h"

namespace ps::serve {

void FairAdmitter::add_tenant(const std::string& tenant,
                              std::uint64_t weight) {
  PS_CHECK_MSG(weight >= 1, "fair: tenant weight >= 1");
  Tenant& entry = tenants_[tenant];
  entry.weight = std::max(entry.weight, weight);
}

void FairAdmitter::begin_cycle(std::int64_t now_ms,
                               const std::vector<std::string>& backlogged) {
  const std::int64_t window =
      options_.window_ms > 0 ? now_ms / options_.window_ms : 0;
  if (window != window_index_) {
    window_index_ = window;
    for (auto& [name, tenant] : tenants_) tenant.window_admitted = 0;
  }
  const std::int64_t quantum =
      static_cast<std::int64_t>(std::max<std::uint64_t>(options_.quantum_jobs, 1));
  for (auto& [name, tenant] : tenants_) {
    tenant.deferred_this_cycle = false;
    const bool is_backlogged =
        std::find(backlogged.begin(), backlogged.end(), name) !=
        backlogged.end();
    if (!is_backlogged) {
      // Idle tenants keep no credit (DRR's no-hoarding rule: fairness is
      // over *contended* cycles, not a bank account).
      tenant.deficit = 0;
      continue;
    }
    if (options_.window_jobs > 0 &&
        tenant.window_admitted >= options_.window_jobs) {
      continue;  // window-blocked: no credit while the quota holds it
    }
    // Accumulates while backlogged: a document costing more than one
    // quantum saves up across cycles instead of starving. Bounded by
    // construction — the serve loop admits as soon as deficit covers the
    // head document, so deficit never exceeds cost_max + quantum*weight.
    tenant.deficit += quantum * static_cast<std::int64_t>(tenant.weight);
  }
}

bool FairAdmitter::try_admit(const std::string& tenant_name,
                             std::uint64_t cost) {
  Tenant& tenant = tenants_[tenant_name];
  const auto billed = static_cast<std::int64_t>(std::max<std::uint64_t>(cost, 1));
  if (options_.window_jobs > 0 &&
      tenant.window_admitted + cost > options_.window_jobs &&
      tenant.window_admitted > 0) {
    if (!tenant.deferred_this_cycle) {
      tenant.deferred_this_cycle = true;
      ++window_deferrals_;
    }
    return false;
  }
  if (billed > tenant.deficit) return false;
  tenant.deficit -= billed;
  tenant.window_admitted += cost;
  return true;
}

bool FairAdmitter::window_blocked(const std::string& tenant_name) const {
  if (options_.window_jobs == 0) return false;
  auto it = tenants_.find(tenant_name);
  if (it == tenants_.end()) return false;
  return it->second.window_admitted >= options_.window_jobs;
}

std::int64_t FairAdmitter::window_jobs_left(
    const std::string& tenant_name) const {
  if (options_.window_jobs == 0) return -1;
  auto it = tenants_.find(tenant_name);
  if (it == tenants_.end()) {
    return static_cast<std::int64_t>(options_.window_jobs);
  }
  const std::uint64_t used =
      std::min(it->second.window_admitted, options_.window_jobs);
  return static_cast<std::int64_t>(options_.window_jobs - used);
}

std::uint64_t FairAdmitter::weight(const std::string& tenant_name) const {
  auto it = tenants_.find(tenant_name);
  return it == tenants_.end() ? 1 : it->second.weight;
}

}  // namespace ps::serve
