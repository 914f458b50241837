// SWF trace replay fenced like Fig-8: the checked-in CEA-Curie mini-slice
// (data/curie_mini.swf) runs through run_scenario and must reproduce the
// committed golden fingerprints — single cap window and a multi-window
// schedule, the latter with the admission-cache audit on and every offline
// plan checked against the container-walk oracle (tests/offline_oracle.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "offline_oracle.h"
#include "scenario_fingerprint.h"
#include "workload/swf.h"

namespace ps::core {
namespace {

using testing::expect_plans_match_oracle;
using testing::fingerprint;

std::vector<workload::JobRequest> load_mini_trace() {
  workload::swf::ParseOptions options;
  options.skip_zero_runtime = true;
  std::string path = std::string(PS_SOURCE_DIR) + "/data/curie_mini.swf";
  std::vector<workload::JobRequest> jobs = workload::swf::load_file(path, options);
  // The standard prelude examples/replay_swf.cpp also uses.
  workload::swf::rebase_submit_times(jobs);
  return jobs;
}

ScenarioConfig trace_config() {
  ScenarioConfig config;
  config.trace_jobs = load_mini_trace();
  config.racks = 2;  // scaled machine: widths shrink like the profile path
  config.powercap.policy = Policy::Mix;
  config.cap_lambda = 0.5;
  return config;
}

TEST(TraceReplay, MiniTraceLoads) {
  std::vector<workload::JobRequest> jobs = load_mini_trace();
  ASSERT_EQ(jobs.size(), 400u);
  EXPECT_EQ(jobs.front().submit_time, 0);
  for (const auto& job : jobs) {
    EXPECT_GT(job.requested_cores, 0);
    EXPECT_GT(job.base_runtime, 0);
    EXPECT_GE(job.requested_walltime, job.base_runtime);
  }
}

TEST(TraceReplay, SingleWindowGoldenFingerprint) {
  ScenarioResult result = run_scenario(trace_config());
  EXPECT_GT(result.stats.started, 0u);
  EXPECT_GT(result.cap_watts, 0.0);
  std::uint64_t digest = fingerprint(result);
  const std::uint64_t kGolden = 0x7cb9a43f79a4103cull;
  EXPECT_EQ(digest, kGolden) << "computed 0x" << std::hex << digest;
  if (digest != kGolden) {
    std::printf("    trace single-window digest: 0x%llx\n",
                static_cast<unsigned long long>(digest));
  }
}

TEST(TraceReplay, MultiWindowGoldenFingerprintWithAuditsOn) {
  ScenarioConfig config = trace_config();
  config.cap_lambda = 1.0;
  config.cap_windows = {
      {0.70, sim::minutes(10), sim::minutes(20), -1},
      {0.50, sim::minutes(40), sim::minutes(20), -1},
      {0.70, sim::minutes(70), sim::minutes(20), -1},
  };
  // Every admission-cache hit re-verdicted; every plan checked below.
  config.powercap.audit_admission_cache = true;
  ScenarioResult result = run_scenario(config);
  EXPECT_GT(result.stats.started, 0u);
  ASSERT_EQ(result.windows.size(), 3u);
  EXPECT_EQ(result.plans.size(), 3u);
  expect_plans_match_oracle(config, result);
  std::uint64_t digest = fingerprint(result);
  const std::uint64_t kGolden = 0x747f6e4816903836ull;
  EXPECT_EQ(digest, kGolden) << "computed 0x" << std::hex << digest;
  if (digest != kGolden) {
    std::printf("    trace multi-window digest: 0x%llx\n",
                static_cast<unsigned long long>(digest));
  }
}

TEST(TraceReplay, DailyCapWindowsExpandCalendarPattern) {
  // "Every day 11:00-13:00 at 40%" for three days, second schedule offset
  // by a non-midnight epoch start.
  std::vector<CapWindow> windows =
      make_daily_cap_windows(0, 3, sim::hours(11), sim::hours(13), 0.4);
  ASSERT_EQ(windows.size(), 3u);
  for (std::size_t day = 0; day < 3; ++day) {
    EXPECT_EQ(windows[day].lambda, 0.4);
    EXPECT_EQ(windows[day].start,
              sim::hours(24) * static_cast<std::int64_t>(day) + sim::hours(11));
    EXPECT_EQ(windows[day].duration, sim::hours(2));
    EXPECT_LT(windows[day].announce, 0);  // advance: planned jointly at t=0
  }
  std::vector<CapWindow> offset =
      make_daily_cap_windows(sim::hours(6), 2, sim::hours(23), sim::hours(24), 0.7);
  ASSERT_EQ(offset.size(), 2u);
  EXPECT_EQ(offset[0].start, sim::hours(29));
  EXPECT_EQ(offset[1].start, sim::hours(53));
  EXPECT_EQ(offset[0].duration, sim::hours(1));
}

TEST(TraceReplay, MultiDayDailyWindowsGoldenFingerprint) {
  // The calendar generator end-to-end on the checked-in mini-trace: a
  // 3-day replay under "every day 11:00-13:00 at 40%", admission audit on
  // and every plan checked against the oracle.
  // The repeated cap depth means the planner prices one plan and serves
  // two from the plan cache; the digest pins the whole multi-day replay.
  ScenarioConfig config = trace_config();
  config.cap_lambda = 1.0;
  config.horizon = sim::hours(3 * 24);
  config.cap_windows =
      make_daily_cap_windows(0, 3, sim::hours(11), sim::hours(13), 0.4);
  config.powercap.audit_admission_cache = true;
  ScenarioResult result = run_scenario(config);
  EXPECT_GT(result.stats.started, 0u);
  ASSERT_EQ(result.windows.size(), 3u);
  EXPECT_EQ(result.plans.size(), 3u);
  expect_plans_match_oracle(config, result);
  EXPECT_EQ(result.windows[0].start, sim::hours(11));
  EXPECT_EQ(result.windows[2].start, sim::hours(59));
  std::uint64_t digest = fingerprint(result);
  const std::uint64_t kGolden = 0xbf88f6f84048c8ccull;
  EXPECT_EQ(digest, kGolden) << "computed 0x" << std::hex << digest;
  if (digest != kGolden) {
    std::printf("    trace multi-day daily-windows digest: 0x%llx\n",
                static_cast<unsigned long long>(digest));
  }
}

TEST(TraceReplay, RepeatsBitIdentically) {
  ScenarioResult first = run_scenario(trace_config());
  ScenarioResult second = run_scenario(trace_config());
  EXPECT_EQ(fingerprint(first), fingerprint(second));
}

}  // namespace
}  // namespace ps::core
