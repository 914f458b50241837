// Streamed vs materialized replay parity, fenced by absolute digests: the
// 27-cell Fig-8 golden grid and the SWF trace goldens must reproduce the
// *committed* fingerprints when replayed through chunked streaming — the
// submission pump plus the O(chunk) JobSource path may not move a single
// scheduling decision. Chunk-boundary edge cases (a job exactly at the
// refill horizon, empty chunk windows, locally unsorted chunks) are fenced
// with a purpose-built source. Driving core::Replay in uneven slices, the
// way ps-serve does, is fenced against the one-shot run_scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/replay.h"
#include "fig8_golden.h"
#include "offline_oracle.h"
#include "scenario_fingerprint.h"
#include "workload/job_source.h"
#include "workload/swf.h"

namespace ps::core {
namespace {

using testing::expect_plans_match_oracle;
using testing::fig8_golden_config;
using testing::fingerprint;
using testing::kFig8GoldenCases;

std::string mini_trace_path() {
  return std::string(PS_SOURCE_DIR) + "/data/curie_mini.swf";
}

std::shared_ptr<workload::SwfStreamSource> mini_trace_source() {
  workload::SwfStreamSource::Options options;
  options.parse.skip_zero_runtime = true;
  return std::make_shared<workload::SwfStreamSource>(mini_trace_path(), options);
}

ScenarioConfig streamed_trace_config() {
  ScenarioConfig config;
  config.job_source = mini_trace_source();
  config.submit_chunk = sim::minutes(10);
  config.racks = 2;
  config.powercap.policy = Policy::Mix;
  config.cap_lambda = 0.5;
  return config;
}

TEST(StreamParity, Fig8GridStreamedMatchesCommittedGoldens) {
  // The full 27-cell grid, submissions chunked at an odd 7-minute window so
  // refill horizons land between, on and around submit times.
  for (const auto& kase : kFig8GoldenCases) {
    ScenarioConfig config = fig8_golden_config(kase.profile, kase.policy, kase.lambda);
    config.submit_chunk = sim::minutes(7);
    std::uint64_t digest = fingerprint(run_scenario(config));
    EXPECT_EQ(digest, kase.digest)
        << workload::to_string(kase.profile) << " lambda " << kase.lambda
        << " policy " << to_string(kase.policy) << ": streamed digest 0x"
        << std::hex << digest << " != committed golden";
  }
}

TEST(StreamParity, MiniTraceStreamedFromFileMatchesCommittedGolden) {
  // The SWF file streamed line by line (never materialized) must land on
  // the same golden as tests/workload_trace_replay_test.cc's batch load.
  ScenarioResult result = run_scenario(streamed_trace_config());
  EXPECT_GT(result.stats.started, 0u);
  std::uint64_t digest = fingerprint(result);
  const std::uint64_t kGolden = 0x7cb9a43f79a4103cull;
  EXPECT_EQ(digest, kGolden) << "computed 0x" << std::hex << digest;
}

TEST(StreamParity, MiniTraceStreamedMultiWindowWithAuditsOn) {
  ScenarioConfig config = streamed_trace_config();
  config.cap_lambda = 1.0;
  config.cap_windows = {
      {0.70, sim::minutes(10), sim::minutes(20), -1},
      {0.50, sim::minutes(40), sim::minutes(20), -1},
      {0.70, sim::minutes(70), sim::minutes(20), -1},
  };
  config.powercap.audit_admission_cache = true;
  ScenarioResult result = run_scenario(config);
  ASSERT_EQ(result.windows.size(), 3u);
  expect_plans_match_oracle(config, result);
  std::uint64_t digest = fingerprint(result);
  const std::uint64_t kGolden = 0x747f6e4816903836ull;
  EXPECT_EQ(digest, kGolden) << "computed 0x" << std::hex << digest;
}

TEST(StreamParity, MiniTraceStreamedDailyWindowsGolden) {
  // The 3-day calendar-window golden, streamed with an hour chunk.
  ScenarioConfig config = streamed_trace_config();
  config.submit_chunk = sim::hours(1);
  config.cap_lambda = 1.0;
  config.horizon = sim::hours(3 * 24);
  config.cap_windows =
      make_daily_cap_windows(0, 3, sim::hours(11), sim::hours(13), 0.4);
  config.powercap.audit_admission_cache = true;
  ScenarioResult result = run_scenario(config);
  expect_plans_match_oracle(config, result);
  std::uint64_t digest = fingerprint(result);
  const std::uint64_t kGolden = 0xbf88f6f84048c8ccull;
  EXPECT_EQ(digest, kGolden) << "computed 0x" << std::hex << digest;
}

// --- chunk-boundary edge cases ----------------------------------------------

/// A source with adversarial chunk behavior: jobs exactly at refill
/// horizons, an hours-long empty stretch (empty chunks), and local
/// disorder inside a chunk window.
std::vector<workload::JobRequest> edge_case_jobs() {
  auto job = [](std::int64_t id, sim::Time submit, std::int64_t cores,
                sim::Duration runtime) {
    workload::JobRequest j;
    j.id = id;
    j.submit_time = submit;
    j.requested_cores = cores;
    j.base_runtime = runtime;
    j.requested_walltime = runtime * 12;
    j.user = static_cast<std::int32_t>(id % 5);
    return j;
  };
  return {
      job(1, 0, 64, sim::minutes(5)),
      // Exactly at the first 10-minute refill horizon.
      job(2, sim::minutes(10), 128, sim::minutes(8)),
      // Local disorder within (10, 20]: 19 before 12, same-time pair split
      // across file order.
      job(3, sim::minutes(19), 256, sim::minutes(3)),
      job(4, sim::minutes(12), 64, sim::minutes(30)),
      job(5, sim::minutes(19), 32, sim::minutes(2)),
      // Hours of silence: many empty chunks before the next submission.
      job(6, sim::hours(3), 512, sim::minutes(20)),
      job(7, sim::hours(3) + 1, 64, sim::minutes(4)),
  };
}

/// Wraps a vector but refuses to sort it: chunks come out in *file order*
/// (locally unsorted), which the pump must restore to submit-time order.
class UnsortedChunkSource final : public workload::JobSource {
 public:
  explicit UnsortedChunkSource(std::vector<workload::JobRequest> jobs)
      : jobs_(std::move(jobs)) {}

  bool next_chunk(sim::Time until, std::vector<workload::JobRequest>& out) override {
    // Emit in original order every remaining job due by `until` — legal per
    // the contract as long as none sits at or below a previous `until`.
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (!emitted_[i] && jobs_[i].submit_time <= until) {
        out.push_back(jobs_[i]);
        emitted_[i] = true;
        ++emitted_count_;
      }
    }
    return emitted_count_ < jobs_.size();
  }
  sim::Time last_submit_hint() override {
    sim::Time last = 0;
    for (const auto& job : jobs_) last = std::max(last, job.submit_time);
    return last;
  }
  void rewind() override {
    emitted_.assign(jobs_.size(), false);
    emitted_count_ = 0;
  }

 private:
  std::vector<workload::JobRequest> jobs_;
  std::vector<bool> emitted_ = std::vector<bool>(jobs_.size(), false);
  std::size_t emitted_count_ = 0;
};

TEST(StreamParity, ChunkBoundaryEdgeCasesMatchMaterialized) {
  ScenarioConfig materialized;
  materialized.trace_jobs = edge_case_jobs();
  materialized.racks = 1;
  materialized.powercap.policy = Policy::Mix;
  materialized.cap_lambda = 0.5;
  std::uint64_t reference = fingerprint(run_scenario(materialized));

  for (sim::Duration chunk : {sim::minutes(10), sim::minutes(19), sim::hours(3),
                              sim::seconds(1)}) {
    ScenarioConfig streamed;
    streamed.job_source =
        std::make_shared<UnsortedChunkSource>(edge_case_jobs());
    streamed.submit_chunk = chunk;
    streamed.racks = 1;
    streamed.powercap.policy = Policy::Mix;
    streamed.cap_lambda = 0.5;
    ScenarioResult result = run_scenario(streamed);
    EXPECT_EQ(result.stats.submitted, 7u);
    EXPECT_EQ(fingerprint(result), reference)
        << "chunk " << chunk << " diverged from the materialized replay";
  }
}

/// Fingerprints of one SWF file replayed materialized (load_file, then
/// rebase_submit_times) and streamed (SwfStreamSource), both under
/// `horizon` (0 = derived from the trace).
struct SwfReplays {
  std::uint64_t materialized = 0;
  std::uint64_t streamed = 0;
};

SwfReplays replay_swf_both_ways(const std::string& text, sim::Duration horizon) {
  const std::string path = ::testing::TempDir() + "stream_parity_trace.swf";
  {
    std::ofstream out(path);
    out << text;
  }
  ScenarioConfig config;
  config.racks = 1;
  config.powercap.policy = Policy::Mix;
  config.cap_lambda = 0.5;
  config.horizon = horizon;

  ScenarioConfig materialized = config;
  std::vector<workload::JobRequest> jobs = workload::swf::load_file(path);
  workload::swf::rebase_submit_times(jobs);
  materialized.trace_jobs = std::move(jobs);
  ScenarioConfig streamed = config;
  streamed.job_source = std::make_shared<workload::SwfStreamSource>(path);
  streamed.submit_chunk = sim::minutes(10);

  SwfReplays replays;
  replays.materialized = fingerprint(run_scenario(materialized));
  replays.streamed = fingerprint(run_scenario(streamed));
  std::remove(path.c_str());
  return replays;
}

TEST(StreamParity, StaleOrOverReportingHeaderIsIgnored) {
  // A "; MaxSubmitTime:" header is a comment like any other: one that
  // under-reports (100 s, below the last job) or over-reports the trace
  // changes neither the rebase offset nor the derived horizon.
  const std::string jobs =
      "1 0 -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n"
      "2 100 -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n"
      "3 50000 -1 60 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1\n";
  const SwfReplays reference = replay_swf_both_ways(jobs, 0);
  EXPECT_EQ(reference.streamed, reference.materialized);
  for (const char* header : {"; MaxSubmitTime: 100\n", "; MaxSubmitTime: 900000\n"}) {
    const SwfReplays replays = replay_swf_both_ways(header + jobs, 0);
    EXPECT_EQ(replays.streamed, replays.materialized) << header;
    EXPECT_EQ(replays.streamed, reference.streamed) << header;
  }
}

TEST(StreamParity, UnsortedHeadStreamsLikeMaterialized) {
  // The first line is not the earliest submission (1000 s, then 400 s):
  // the stream must rebase on the minimum, like rebase_submit_times, with
  // or without a header and at a derived or an explicit horizon.
  const std::string jobs =
      "1 1000 -1 600 8 -1 -1 8 900 -1 1 1 -1 -1 -1 -1 -1 -1\n"
      "2 400 -1 600 8 -1 -1 8 900 -1 1 2 -1 -1 -1 -1 -1 -1\n"
      "3 4000 -1 600 8 -1 -1 8 900 -1 1 1 -1 -1 -1 -1 -1 -1\n";
  for (const std::string header : {"", "; MaxSubmitTime: 4000\n"}) {
    for (sim::Duration horizon : {sim::Duration{0}, sim::hours(3)}) {
      SwfReplays replays;
      ASSERT_NO_THROW(replays = replay_swf_both_ways(header + jobs, horizon))
          << "header '" << header << "' horizon " << horizon;
      EXPECT_EQ(replays.streamed, replays.materialized)
          << "header '" << header << "' horizon " << horizon;
    }
  }
}

TEST(StreamParity, StreamedConfigRunsRepeatedly) {
  // run_scenario rewinds the source, so the same config replays twice with
  // identical results (sequential reuse; concurrent sharing stays illegal).
  ScenarioConfig config = streamed_trace_config();
  std::uint64_t first = fingerprint(run_scenario(config));
  std::uint64_t second = fingerprint(run_scenario(config));
  EXPECT_EQ(first, second);
}

// --- driving mode: Replay advanced in slices -------------------------------

// core::Replay has two drivers: run_scenario advances it once to the
// horizon, ps-serve in watermark-shaped slices. Sliced driving must be
// indistinguishable from the one-shot run — same digest, windows and plans.

workload::GeneratorParams sliced_params() {
  workload::GeneratorParams params;
  params.name = "sliced";
  params.span = sim::hours(6);
  params.job_count = 500;
  params.backlog_fraction = 0.1;
  params.w_huge = 0.0;
  return params;
}

ScenarioConfig sliced_config(Policy policy) {
  ScenarioConfig config;
  config.job_source =
      std::make_shared<workload::ChunkedSyntheticSource>(sliced_params(), 11);
  config.racks = 4;
  config.powercap.policy = policy;
  // Advance windows (one centred: start < 0), announce-typed windows out of
  // announce order, and one announcement past the 7 h horizon (dropped).
  config.cap_windows = {
      {0.60, sim::hours(1), sim::minutes(40), -1},
      {0.50, -1, sim::minutes(50), -1},
      {0.70, sim::hours(5), sim::minutes(30), sim::hours(4) + sim::minutes(17)},
      {0.45, sim::hours(2) + sim::minutes(10), sim::minutes(20), sim::hours(2)},
      {0.40, sim::hours(8), sim::hours(1), sim::hours(9)},
  };
  return config;
}

enum class Slices { kHourly, kWatermarks };

ScenarioResult drive_in_slices(const ScenarioConfig& config, Slices slices) {
  workload::JobSource& source = *config.job_source;
  source.rewind();
  const sim::Time horizon = source.last_submit_hint() + sim::hours(1);
  Replay replay(config, source, horizon, kDefaultStreamChunk);
  // Watermark-shaped gaps: repeats, millisecond nudges, odd seconds,
  // minutes and multi-hour jumps, starting at 0 like a fresh stream.
  const sim::Duration watermark_gaps[] = {
      0, 1, sim::seconds(1) - 3, 0, sim::minutes(7), 1,
      sim::minutes(53) + 11, sim::hours(2), 0, sim::seconds(29)};
  std::size_t step = 0;
  for (sim::Time t = 0; t < horizon;) {
    const sim::Duration gap =
        slices == Slices::kHourly
            ? sim::hours(1)
            : watermark_gaps[step++ % std::size(watermark_gaps)];
    t = std::min(t + gap, horizon);
    replay.advance_to(t);
  }
  EXPECT_TRUE(replay.pump().fully_drained());
  return replay.finish(horizon);
}

void expect_same_plans(const std::vector<OfflinePlan>& a,
                       const std::vector<OfflinePlan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].split.mechanism, b[i].split.mechanism) << "plan " << i;
    EXPECT_EQ(a[i].split.n_off, b[i].split.n_off) << "plan " << i;
    EXPECT_EQ(a[i].split.n_dvfs, b[i].split.n_dvfs) << "plan " << i;
    EXPECT_EQ(a[i].split.work, b[i].split.work) << "plan " << i;
    EXPECT_EQ(a[i].selection.nodes, b[i].selection.nodes) << "plan " << i;
    EXPECT_EQ(a[i].cap_watts, b[i].cap_watts) << "plan " << i;
    EXPECT_EQ(a[i].node_budget_watts, b[i].node_budget_watts) << "plan " << i;
    EXPECT_EQ(a[i].required_saving_watts, b[i].required_saving_watts)
        << "plan " << i;
    EXPECT_EQ(a[i].reservation_id, b[i].reservation_id) << "plan " << i;
  }
}

void expect_sliced_matches_one_shot(const ScenarioConfig& config) {
  const ScenarioResult reference = run_scenario(config);
  for (Slices slices : {Slices::kHourly, Slices::kWatermarks}) {
    SCOPED_TRACE(slices == Slices::kHourly ? "hourly" : "watermarks");
    const ScenarioResult sliced = drive_in_slices(config, slices);
    EXPECT_EQ(fingerprint(sliced), fingerprint(reference));
    ASSERT_EQ(sliced.windows.size(), reference.windows.size());
    for (std::size_t i = 0; i < sliced.windows.size(); ++i) {
      EXPECT_EQ(sliced.windows[i].start, reference.windows[i].start);
      EXPECT_EQ(sliced.windows[i].end, reference.windows[i].end);
      EXPECT_EQ(sliced.windows[i].watts, reference.windows[i].watts);
    }
    expect_same_plans(sliced.plans, reference.plans);
  }
}

TEST(StreamParity, SlicedReplayMatchesRunScenarioOnMultiWindowSchedule) {
  const ScenarioConfig config = sliced_config(Policy::Mix);
  const ScenarioResult reference = run_scenario(config);
  // The past-horizon announcement is dropped; every window has its plan.
  ASSERT_EQ(reference.windows.size(), 4u);
  EXPECT_EQ(reference.plans.size(), 4u);
  EXPECT_GT(reference.stats.started, 0u);
  expect_sliced_matches_one_shot(config);
}

TEST(StreamParity, SlicedReplayMatchesRunScenarioWithoutPolicy) {
  const ScenarioConfig config = sliced_config(Policy::None);
  EXPECT_TRUE(run_scenario(config).windows.empty());
  expect_sliced_matches_one_shot(config);
}

}  // namespace
}  // namespace ps::core
