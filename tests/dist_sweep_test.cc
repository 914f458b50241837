// The distributed sweep end-to-end: a driver plus real local worker
// processes (the ps-sweep binary CMake points PS_SWEEP_BIN at) must
// reproduce sweep grids bit-identical to the in-process SweepEngine — the
// 27-cell Fig-8 golden grid across 4 workers matching every committed
// fingerprint — and a worker killed mid-shard must be detected and its
// shard resubmitted, never silently dropped.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "core/sweep.h"
#include "dist/driver.h"
#include "dist/worker.h"
#include "fig8_golden.h"
#include "util/spool.h"

namespace ps::dist {
namespace {

using core::testing::fig8_golden_config;
using core::testing::kFig8GoldenCases;

DriverOptions worker_options() {
  DriverOptions options;
  options.worker_command = PS_SWEEP_BIN;
  return options;
}

/// A cheap grid with distinguishable cells (distinct seeds and caps).
std::vector<core::ScenarioConfig> small_grid(std::size_t cells) {
  workload::GeneratorParams params =
      workload::params_for(workload::Profile::MedianJob);
  params.name = "dist-test";
  params.span = sim::minutes(10);
  params.job_count = 60;
  params.w_huge = 0.0;
  std::vector<core::ScenarioConfig> grid(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    grid[i].custom_workload = params;
    grid[i].racks = 1;
    grid[i].seed = 100 + i;
    grid[i].powercap.policy = core::Policy::Mix;
    grid[i].cap_lambda = 0.4 + 0.05 * static_cast<double>(i % 5);
  }
  return grid;
}

TEST(DistSweep, SmallGridMatchesInProcessSweepBitExactly) {
  std::vector<core::ScenarioConfig> grid = small_grid(7);
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);

  DriverOptions options = worker_options();
  options.workers = 3;
  DriverReport report = run_distributed(grid, options);

  ASSERT_EQ(report.results.size(), grid.size());
  EXPECT_EQ(report.workers_spawned, 3u);
  EXPECT_EQ(report.resubmitted_shards, 0u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(core::fingerprint(report.results[i]),
              core::fingerprint(in_process[i]))
        << "cell " << i;
    EXPECT_EQ(report.fingerprints[i], core::fingerprint(in_process[i]));
  }
}

TEST(DistSweep, Fig8GridOn4WorkersMatchesAllGoldenFingerprints) {
  // The acceptance fence: the full 27-cell Fig-8 golden grid, driven over
  // 4 worker processes, must match every committed digest — the same
  // constants the in-process determinism test pins. The digests double as
  // the golden manifest, so the driver verifies them during the merge too.
  std::vector<core::ScenarioConfig> grid;
  std::vector<std::uint64_t> golden;
  for (const auto& c : kFig8GoldenCases) {
    grid.push_back(fig8_golden_config(c.profile, c.policy, c.lambda));
    golden.push_back(c.digest);
  }
  ASSERT_EQ(grid.size(), 27u);

  DriverOptions options = worker_options();
  options.workers = 4;
  options.golden = golden;  // merge-time verification against the manifest
  DriverReport report = run_distributed(grid, options);

  ASSERT_EQ(report.results.size(), 27u);
  for (std::size_t i = 0; i < 27u; ++i) {
    EXPECT_EQ(report.fingerprints[i], golden[i]) << "cell " << i;
    EXPECT_GT(report.results[i].stats.started, 0u) << "cell " << i;
  }
}

TEST(DistSweep, KilledWorkerShardIsResubmittedNotDropped) {
  std::vector<core::ScenarioConfig> grid = small_grid(6);
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);

  // The fault plan kills every first-attempt worker right before it
  // publishes (attempt 2+ runs clean) — emulating a mid-shard SIGKILL
  // with a stranded claim file in the spool.
  std::string spool = util::make_temp_dir("ps-dist-kill-");
  DriverOptions options = worker_options();
  options.workers = 2;
  options.spool_dir = spool;
  options.worker_args = {"--faults",
                         "seed=1,rate=1,max_attempt=1,sites=die_before_publish"};
  DriverReport report = run_distributed(grid, options);

  EXPECT_GE(report.resubmitted_shards, 1u);     // the dead shards came back
  EXPECT_GT(report.workers_spawned, 2u);        // replacement workers ran
  ASSERT_EQ(report.results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(core::fingerprint(report.results[i]),
              core::fingerprint(in_process[i]))
        << "cell " << i;
  }
  util::remove_tree(spool);
}

TEST(DistSweep, UnrunnableShardExhaustsAttemptsLoudly) {
  // A worker command that cannot run: every wave strands nothing (the
  // shards are never claimed), attempts run out, and the driver throws
  // instead of spinning or silently returning a partial grid.
  std::vector<core::ScenarioConfig> grid = small_grid(2);
  DriverOptions options;
  options.worker_command = "/nonexistent/ps-sweep";
  options.workers = 2;
  options.max_attempts = 2;
  EXPECT_THROW(run_distributed(grid, options), std::runtime_error);
}

TEST(DistSweep, DriveCliProducesVerifiedManifest) {
  // The whole CLI surface end to end: `ps-sweep drive` reads a serialized
  // cell grid, spawns workers (finding itself as the worker binary), and
  // writes a fingerprint manifest that must match the in-process sweep.
  std::vector<core::ScenarioConfig> grid = small_grid(3);
  std::string dir = util::make_temp_dir("ps-dist-cli-");
  util::write_file_atomic(dir + "/cells.grid", serialize_cell_grid(grid));
  std::string cmd = std::string(PS_SWEEP_BIN) + " drive --cells " + dir +
                    "/cells.grid --workers 2 --manifest-out " + dir +
                    "/manifest > " + dir + "/records.txt 2> " + dir + "/log.txt";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << util::read_file(dir + "/log.txt");

  std::vector<std::uint64_t> manifest =
      parse_manifest(util::read_file(dir + "/manifest"));
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);
  ASSERT_EQ(manifest.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(manifest[i], core::fingerprint(in_process[i])) << "cell " << i;
  }
  util::remove_tree(dir);
}

TEST(DistSweep, InProcessShardRunnerMatchesEngine) {
  // run_shard is the exact unit the worker process executes; check it
  // in-process too so a failure here cannot hide behind process plumbing.
  std::vector<core::ScenarioConfig> grid = small_grid(3);
  Shard shard;
  shard.id = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) shard.cells.push_back({i, grid[i]});
  ShardResults results = run_shard(shard);
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);
  ASSERT_EQ(results.records.size(), 3u);
  for (std::size_t i = 0; i < 3u; ++i) {
    EXPECT_EQ(results.records[i].index, i);
    EXPECT_EQ(results.records[i].fingerprint, core::fingerprint(in_process[i]));
  }
}

}  // namespace
}  // namespace ps::dist
