// Shared 64-bit FNV-1a digest over a ScenarioResult: every summary field,
// controller counter and recorded sample. Any change to scheduling
// decisions — however small — flips the digest, so it can pin *absolute*
// behavior across refactors (the Fig-8 golden fingerprints, the SWF
// trace-replay fence) and across *process boundaries*: a distributed sweep
// worker fingerprints each cell result before serializing it, and the
// driver re-fingerprints after parsing, so any serde infidelity or version
// skew fails loudly at merge time (src/dist/).
#pragma once

#include <cstdint>

#include "core/experiment.h"
#include "util/seal.h"

namespace ps::core {

inline std::uint64_t fingerprint(const ScenarioResult& result) {
  using util::fnv1a;  // util/seal.h: one hash family for digests and seals
  std::uint64_t h = 0xcbf29ce484222325ull;
  const metrics::RunSummary& s = result.summary;
  h = fnv1a(h, s.energy_joules);
  h = fnv1a(h, s.work_core_seconds);
  h = fnv1a(h, s.effective_work_core_seconds);
  h = fnv1a(h, s.max_possible_work);
  h = fnv1a(h, s.launched_jobs);
  h = fnv1a(h, s.completed_jobs);
  h = fnv1a(h, s.killed_jobs);
  h = fnv1a(h, s.submitted_jobs);
  h = fnv1a(h, s.mean_wait_seconds);
  h = fnv1a(h, s.utilization);
  h = fnv1a(h, s.mean_watts);
  h = fnv1a(h, s.max_watts);
  h = fnv1a(h, s.cap_violation_seconds);
  const rjms::Controller::Stats& st = result.stats;
  h = fnv1a(h, st.submitted);
  h = fnv1a(h, st.started);
  h = fnv1a(h, st.completed);
  h = fnv1a(h, st.killed);
  h = fnv1a(h, st.rejected);
  h = fnv1a(h, st.full_passes);
  h = fnv1a(h, st.backfill_starts);
  for (const metrics::Sample& sample : result.samples) {
    h = fnv1a(h, static_cast<std::uint64_t>(sample.t));
    h = fnv1a(h, sample.watts);
    h = fnv1a(h, static_cast<std::uint64_t>(sample.idle_nodes));
    h = fnv1a(h, static_cast<std::uint64_t>(sample.off_nodes));
    h = fnv1a(h, static_cast<std::uint64_t>(sample.transitioning_nodes));
    for (std::int32_t busy : sample.busy_by_freq) {
      h = fnv1a(h, static_cast<std::uint64_t>(busy));
    }
  }
  return h;
}

}  // namespace ps::core
