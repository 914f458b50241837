// Determinism of run_scenario across the Fig-8 policy sweep shapes: the
// same seed must produce bit-identical summaries on repeated runs, and —
// via the checked-in golden fingerprints below — across versions. This is
// the regression fence for the scheduling refactors (the O(selected) idle
// index / blocked set / event queue of PR 1, the batched admission path of
// PR 2): they must be pure performance changes, never behavioral ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/replay.h"
#include "fig8_golden.h"
#include "scenario_fingerprint.h"

namespace ps::core {
namespace {

ScenarioConfig sweep_config(Policy policy, double lambda) {
  // The Fig-8 grid wiring at test scale: 2 racks, 1 h span, with the cap
  // window centered in the span like the paper's full runs.
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.name = "determinism";
  params.span = sim::hours(1);
  params.job_count = 600;
  params.w_huge = 0.0;
  ScenarioConfig config;
  config.custom_workload = params;
  config.racks = 2;
  config.seed = 20150525;
  config.powercap.policy = policy;
  config.cap_lambda = lambda;
  return config;
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.summary.energy_joules, b.summary.energy_joules) << label;
  EXPECT_EQ(a.summary.work_core_seconds, b.summary.work_core_seconds) << label;
  EXPECT_EQ(a.summary.effective_work_core_seconds,
            b.summary.effective_work_core_seconds)
      << label;
  EXPECT_EQ(a.summary.launched_jobs, b.summary.launched_jobs) << label;
  EXPECT_EQ(a.summary.completed_jobs, b.summary.completed_jobs) << label;
  EXPECT_EQ(a.summary.killed_jobs, b.summary.killed_jobs) << label;
  EXPECT_EQ(a.summary.mean_wait_seconds, b.summary.mean_wait_seconds) << label;
  EXPECT_EQ(a.summary.max_watts, b.summary.max_watts) << label;
  EXPECT_EQ(a.summary.cap_violation_seconds, b.summary.cap_violation_seconds) << label;
  EXPECT_EQ(a.stats.started, b.stats.started) << label;
  EXPECT_EQ(a.stats.completed, b.stats.completed) << label;
  EXPECT_EQ(a.stats.killed, b.stats.killed) << label;
  EXPECT_EQ(a.stats.backfill_starts, b.stats.backfill_starts) << label;
  EXPECT_EQ(a.stats.full_passes, b.stats.full_passes) << label;
  // The recorded series must match sample for sample, not just aggregates.
  ASSERT_EQ(a.samples.size(), b.samples.size()) << label;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    ASSERT_EQ(a.samples[i].t, b.samples[i].t) << label << " sample " << i;
    ASSERT_EQ(a.samples[i].watts, b.samples[i].watts) << label << " sample " << i;
  }
}

TEST(Determinism, Fig8SweepRepeatsBitIdentically) {
  const std::vector<std::pair<double, Policy>> scenarios = {
      {0.40, Policy::Mix},  {0.40, Policy::Dvfs}, {0.40, Policy::Shut},
      {0.60, Policy::Mix},  {0.60, Policy::Dvfs}, {0.60, Policy::Shut},
      {0.80, Policy::Shut}, {1.00, Policy::None}};
  for (const auto& [lambda, policy] : scenarios) {
    std::string label =
        std::string(to_string(policy)) + "@" + std::to_string(lambda);
    ScenarioResult first = run_scenario(sweep_config(policy, lambda));
    ScenarioResult second = run_scenario(sweep_config(policy, lambda));
    EXPECT_GT(first.stats.started, 0u) << label;
    expect_identical(first, second, label);
  }
}

// --- cross-version golden fingerprints ------------------------------------
//
// A 64-bit FNV-1a digest (tests/scenario_fingerprint.h) over every summary
// field, controller counter and recorded sample of a scenario. Unlike
// Fig8SweepRepeatsBitIdentically (which only proves run-to-run determinism
// within one binary), the checked-in constants below pin the *absolute*
// behavior: any change to scheduling decisions — however small — flips the
// digest, so the bit-identical claim is enforced in CI across refactors,
// not just locally.

using testing::fig8_golden_config;
using testing::fingerprint;
using testing::GoldenCase;
using testing::kFig8GoldenCases;

// The grid and its committed digests live in tests/fig8_golden.h, shared
// with the distributed-sweep fence (tests/dist_sweep_test.cc): the same 27
// scenarios must produce the same fingerprints whether run in-process here
// or across worker processes there.

TEST(Determinism, Fig8GoldenFingerprintsMatchCommittedValues) {
  for (const GoldenCase& c : kFig8GoldenCases) {
    ScenarioResult result =
        run_scenario(fig8_golden_config(c.profile, c.policy, c.lambda));
    std::uint64_t digest = fingerprint(result);
    std::string label = std::string(workload::to_string(c.profile)) + "/" +
                        std::to_string(c.lambda) + "/" + to_string(c.policy);
    EXPECT_GT(result.stats.started, 0u) << label;
    EXPECT_EQ(digest, c.digest) << label << ": computed 0x" << std::hex << digest;
    if (digest != c.digest) {
      std::printf("    {workload::Profile::%s, %.2f, Policy::%s, 0x%llx},\n",
                  workload::to_string(c.profile), c.lambda, to_string(c.policy),
                  static_cast<unsigned long long>(digest));
    }
  }
}

// --- replays that supersede job ends --------------------------------------
//
// Kill mode and dynamic DVFS are the only paths that drop or replace a
// running job's end event (kill_job, rescale_running_job); no Fig-8 cell
// takes either. A cap of half the machine, announced with no warning in
// the middle of the golden workload for 20 min, makes both act: kill mode
// kills running jobs to get under it, dynamic DVFS slows them when it opens
// and speeds them up when it closes. Each digest was computed before job
// ends stopped being cancelled in the event queue.

ScenarioConfig superseding_config(Policy policy) {
  ScenarioConfig config = fig8_golden_config(workload::Profile::MedianJob, policy, 1.0);
  CapWindow window;
  window.lambda = 0.5;
  window.start = sim::minutes(30);
  window.duration = sim::minutes(20);
  window.announce = sim::minutes(30);
  config.cap_windows = {window};
  return config;
}

TEST(Determinism, KillModeDigestMatchesCommittedValue) {
  ScenarioConfig config = superseding_config(Policy::Shut);
  const ScenarioResult waited = run_scenario(config);
  config.powercap.kill_on_overcap = true;
  const ScenarioResult killed = run_scenario(config);
  EXPECT_GT(killed.stats.killed, 0u);
  // Walltime kills count too: only the excess over the waiting run is the cap's.
  EXPECT_GT(killed.stats.killed, waited.stats.killed);
  const std::uint64_t digest = fingerprint(killed);
  EXPECT_EQ(digest, 0xaf8f8eb2e3335e02ull) << "computed 0x" << std::hex << digest;
}

struct RescaleCount : rjms::ControllerObserver {
  void on_job_rescaled(const rjms::Job&, cluster::FreqIndex, sim::Time) override {
    ++rescales;
  }
  std::uint64_t rescales = 0;
};

TEST(Determinism, DynamicDvfsDigestMatchesCommittedValue) {
  ScenarioConfig config = superseding_config(Policy::Dvfs);
  config.powercap.dynamic_dvfs = true;
  const std::uint64_t digest = fingerprint(run_scenario(config));
  EXPECT_EQ(digest, 0x1f9bf18d93af0eceull) << "computed 0x" << std::hex << digest;

  // The same replay driven the way run_scenario drives it, with an
  // observer counting the rescales.
  const sim::Time horizon = config.custom_workload->span;
  workload::VectorJobSource source(workload::generate(*config.custom_workload, config.seed));
  Replay replay(config, source, horizon, 0);
  RescaleCount count;
  replay.controller().add_observer(&count);
  replay.advance_to(horizon);
  EXPECT_EQ(fingerprint(replay.finish(horizon)), digest);
  EXPECT_GT(count.rescales, 0u);
}

TEST(Determinism, DistinctSeedsDiverge) {
  // Sanity check that the fence above can actually fail: different seeds
  // must produce different workloads/summaries.
  ScenarioConfig a = sweep_config(Policy::Shut, 0.6);
  ScenarioConfig b = a;
  b.seed = 1;
  EXPECT_NE(run_scenario(a).summary.energy_joules,
            run_scenario(b).summary.energy_joules);
}

}  // namespace
}  // namespace ps::core
