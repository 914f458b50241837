// The traced replay: run_scenario re-wired from the project's public
// classes, in run_scenario's exact order, with timing decorators at the
// layer boundaries (JobSource, PowerGovernor, the Recorder's observer slot,
// PowercapManager's planning calls, run_until in one-hour slices). It must
// reproduce run_scenario's fingerprint; psbench checks that for every run.
#pragma once

#include <cstdint>

#include "core/experiment.h"

namespace perfbench {

/// Per-layer totals of one or more traced replays. Times are wall seconds
/// spent inside calls into the layer, measured from outside it.
struct LayerTotals {
  // workload
  double next_chunk_s = 0.0;
  double next_chunk_in_run_s = 0.0;  ///< the part inside run_until slices
  double hint_s = 0.0;
  std::uint64_t source_allocs = 0;
  // sim
  std::uint64_t events_fired = 0;
  double run_s = 0.0;
  // rjms
  std::uint64_t submitted = 0;
  std::uint64_t full_passes = 0;
  std::uint64_t quick_attempts = 0;
  std::uint64_t backfill_starts = 0;
  std::uint64_t selector_fast_fails = 0;
  std::uint64_t admission_fast_fails = 0;
  std::uint64_t pending_max = 0;
  double pending_sum = 0.0;
  std::uint64_t pending_samples = 0;
  // core online (Alg 2): every call through the governor interface
  std::uint64_t admit_calls = 0;
  std::uint64_t admit_ok = 0;
  std::uint64_t known_rejected_calls = 0;
  double admit_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_carries = 0;
  // core offline (Alg 1)
  double plan_s = 0.0;
  std::uint64_t plans = 0;
  std::uint64_t switched_off_nodes = 0;
  // core pump
  std::uint64_t refills = 0;
  // metrics
  double record_s = 0.0;
  std::uint64_t record_allocs = 0;
  std::uint64_t samples = 0;
  std::uint64_t sample_bytes = 0;
  double finalize_s = 0.0;
  // the whole traced replay, set-up to result
  double wall_s = 0.0;

  void add(const LayerTotals& other);
};

struct ProbedRun {
  ps::core::ScenarioResult result;
  std::uint64_t fingerprint = 0;  ///< core::fingerprint(result)
  LayerTotals layers;
};

/// Replays `config` through the re-wired, decorated path. Supports the
/// configurations the benchmark runs: a generated profile or a job source,
/// and advance-planned cap windows (single or daily schedule). Throws on an
/// announce-typed window or a job-accounting mismatch.
ProbedRun run_probed(const ps::core::ScenarioConfig& config);

}  // namespace perfbench
