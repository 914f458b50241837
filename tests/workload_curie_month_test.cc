// The multi-week curie_month trace end to end: generated exactly like the
// make_curie_month tool, written to SWF, then replayed BOTH ways — streamed
// off the file in O(chunk) memory and fully materialized — onto one
// committed golden fingerprint. This is the scale fence of the streaming
// pipeline: ~50k jobs over 4 weeks, a daily cap-window calendar, and
// byte-identical results regardless of how the trace enters the simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "scenario_fingerprint.h"
#include "util/spool.h"
#include "util/subprocess.h"
#include "workload/job_source.h"
#include "workload/swf.h"
#include "workload/synthetic.h"

namespace ps::core {
namespace {

using testing::fingerprint;

constexpr std::uint64_t kSeed = 20111001;  // the tool's default

/// Writes the default curie_month trace exactly like make_curie_month and
/// returns its path (generated once per test process).
const std::string& month_trace_path() {
  static const std::string path = [] {
    workload::ChunkedSyntheticSource source(workload::curie_month_params(), kSeed);
    std::vector<workload::JobRequest> trace = workload::materialize(source);
    std::string p = ::testing::TempDir() + "curie_month_test.swf";
    std::ofstream out(p);
    workload::swf::write(out, trace);
    return p;
  }();
  return path;
}

ScenarioConfig month_config() {
  ScenarioConfig config;
  config.racks = 2;  // scaled machine, like the curie_mini fences
  config.powercap.policy = Policy::Mix;
  config.cap_lambda = 1.0;
  // Every day 11:00-13:00 at 50% for the four weeks: one plan priced, 27
  // served from the plan cache.
  config.cap_windows =
      make_daily_cap_windows(0, 28, sim::hours(11), sim::hours(13), 0.5);
  return config;
}

ScenarioResult replay_materialized() {
  workload::swf::ParseOptions options;
  options.skip_zero_runtime = true;
  std::vector<workload::JobRequest> jobs =
      workload::swf::load_file(month_trace_path(), options);
  workload::swf::rebase_submit_times(jobs);
  ScenarioConfig config = month_config();
  config.trace_jobs = std::move(jobs);
  return run_scenario(config);
}

ScenarioResult replay_streamed(sim::Duration chunk) {
  workload::SwfStreamSource::Options options;
  options.parse.skip_zero_runtime = true;
  ScenarioConfig config = month_config();
  config.job_source =
      std::make_shared<workload::SwfStreamSource>(month_trace_path(), options);
  config.submit_chunk = chunk;
  return run_scenario(config);
}

TEST(CurieMonth, TraceShapeIsMultiWeek) {
  workload::swf::ParseOptions options;
  options.skip_zero_runtime = true;
  std::vector<workload::JobRequest> jobs =
      workload::swf::load_file(month_trace_path(), options);
  EXPECT_GT(jobs.size(), 49000u);  // a few zero-runtime draws drop out
  sim::Time last = workload::swf::rebase_submit_times(jobs);
  EXPECT_GT(last, sim::hours(24 * 27));
  EXPECT_LE(last, sim::hours(24 * 28));
}

TEST(CurieMonth, MaterializedGoldenFingerprint) {
  ScenarioResult result = replay_materialized();
  EXPECT_GT(result.stats.started, 0u);
  EXPECT_EQ(result.windows.size(), 28u);
  std::uint64_t digest = fingerprint(result);
  const std::uint64_t kGolden = 0x4383e14bf497d36cull;
  EXPECT_EQ(digest, kGolden) << "computed 0x" << std::hex << digest;
  if (digest != kGolden) {
    std::printf("    curie_month materialized digest: 0x%llx\n",
                static_cast<unsigned long long>(digest));
  }
}

TEST(CurieMonth, StreamedReplayMatchesMaterializedGolden) {
  // Streamed off the file with a 6 h chunk: identical digest, O(chunk)
  // resident jobs (the RSS fence itself lives in CI, where the process is
  // clean enough for max-RSS to mean something).
  ScenarioResult result = replay_streamed(sim::hours(6));
  std::uint64_t digest = fingerprint(result);
  const std::uint64_t kGolden = 0x4383e14bf497d36cull;
  EXPECT_EQ(digest, kGolden) << "computed 0x" << std::hex << digest;
  if (digest != kGolden) {
    std::printf("    curie_month streamed digest: 0x%llx\n",
                static_cast<unsigned long long>(digest));
  }
}

TEST(CurieMonth, ToolRejectsMalformedFlags) {
  // Each value used to be cut, wrapped or half-parsed into a trace; the
  // tool must refuse it with a message naming the flag and write nothing.
  const std::pair<const char*, const char*> cases[] = {
      {"--days", "4294967297"}, {"--jobs", "12abc"}, {"--seed", "-1"},
      {"--jobs", "x"},          {"--jobs", "0"},     {"--days", "0"}};
  for (const auto& [flag, value] : cases) {
    const std::string dir = util::make_temp_dir("curie_month_flags");
    util::Subprocess tool = util::Subprocess::spawn(
        {PS_CURIE_MONTH_BIN, dir + "/out.swf", flag, value}, dir + "/tool.out",
        dir + "/tool.err");
    int exit_code = -1;
    ASSERT_TRUE(tool.wait_for(30'000, &exit_code)) << flag << ' ' << value;
    EXPECT_EQ(exit_code, 1) << flag << ' ' << value;
    const std::string err = util::read_file(dir + "/tool.err");
    EXPECT_NE(err.find(std::string("make_curie_month: ") + flag), std::string::npos)
        << flag << ' ' << value << ": " << err;
    std::ifstream written(dir + "/out.swf");
    EXPECT_FALSE(written.good()) << flag << ' ' << value;
    util::remove_tree(dir);
  }
}

}  // namespace
}  // namespace ps::core
