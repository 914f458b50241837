// Chaos soak for the fault-tolerant sweep fabric: the 27-cell Fig-8
// golden grid driven through real worker processes under a deterministic
// fault schedule (the sweep sites of dist/worker.h) must still merge bit-identical to the
// committed fingerprints — workers dying before publish, tearing their
// publishes, flipping bits, hanging after claim; the driver reclaiming
// leases mid-wave, fencing zombie publishes by token, rejecting corrupt
// documents, quarantining exhausted shards, and resuming a half-finished
// spool. Every schedule is a pure function of its seed, so a failure here
// reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "core/sweep.h"
#include "dist/driver.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "fig8_golden.h"
#include "util/spool.h"
#include "util/subprocess.h"

namespace ps::dist {
namespace {

using core::testing::fig8_golden_config;
using core::testing::kFig8GoldenCases;

DriverOptions chaos_options() {
  DriverOptions options;
  options.worker_command = PS_SWEEP_BIN;
  // Tight timing so lease expiries resolve in test time, not ops time.
  options.heartbeat_interval_ms = 50;
  options.lease_timeout_ms = 500;
  options.poll_interval_ms = 10;
  return options;
}

std::vector<core::ScenarioConfig> fig8_grid(std::vector<std::uint64_t>* golden) {
  std::vector<core::ScenarioConfig> grid;
  for (const auto& c : kFig8GoldenCases) {
    grid.push_back(fig8_golden_config(c.profile, c.policy, c.lambda));
    if (golden != nullptr) golden->push_back(c.digest);
  }
  return grid;
}

/// A cheap grid with distinguishable cells (same recipe as dist_sweep_test).
std::vector<core::ScenarioConfig> small_grid(std::size_t cells) {
  workload::GeneratorParams params =
      workload::params_for(workload::Profile::MedianJob);
  params.name = "chaos-test";
  params.span = sim::minutes(10);
  params.job_count = 60;
  params.w_huge = 0.0;
  std::vector<core::ScenarioConfig> grid(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    grid[i].custom_workload = params;
    grid[i].racks = 1;
    grid[i].seed = 300 + i;
    grid[i].powercap.policy = core::Policy::Mix;
    grid[i].cap_lambda = 0.4 + 0.05 * static_cast<double>(i % 5);
  }
  return grid;
}

TEST(DistChaos, FaultPlanIsDeterministicAndBounded) {
  SweepFaultPlan plan = SweepFaultPlan::parse(
      "seed=7,rate=0.5,sites=die_before_publish+torn_publish,max_attempt=2");
  // Pure function of (seed, site, shard, attempt): identical across calls.
  for (std::uint64_t shard = 0; shard < 32; ++shard) {
    for (std::uint64_t attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_EQ(plan.fires(SweepFault::DieBeforePublish, shard, attempt),
                plan.fires(SweepFault::DieBeforePublish, shard, attempt));
      // Bounded by construction: nothing fires past max_attempt (2).
      if (attempt > 2) {
        for (const auto& row : kSweepFaultSites) {
          EXPECT_FALSE(plan.fires(row.site, shard, attempt)) << row.token;
        }
      }
    }
  }
  // At rate 0.5 over 32 shards x 2 attempts, both outcomes must occur —
  // a plan that always or never fires would soak nothing.
  int fired = 0;
  for (std::uint64_t shard = 0; shard < 32; ++shard) {
    for (std::uint64_t attempt = 1; attempt <= 2; ++attempt) {
      fired += plan.fires(SweepFault::DieBeforePublish, shard, attempt) ? 1 : 0;
    }
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
  // Disabled sites stay silent even at rate 1.
  SweepFaultPlan narrow = SweepFaultPlan::parse("seed=7,rate=1,sites=torn_publish");
  EXPECT_FALSE(narrow.fires(SweepFault::DieBeforePublish, 0, 1));
  EXPECT_TRUE(narrow.fires(SweepFault::TornPublish, 0, 1));
  // Shard filters restrict the blast radius.
  SweepFaultPlan filtered = SweepFaultPlan::parse("seed=7,rate=1,sites=all,shards=2");
  EXPECT_TRUE(filtered.fires(SweepFault::TornPublish, 2, 1));
  EXPECT_FALSE(filtered.fires(SweepFault::TornPublish, 3, 1));

  // Inert plans never fire.
  for (const SweepFaultPlan& inert : {SweepFaultPlan(), SweepFaultPlan::parse("")}) {
    for (const auto& row : kSweepFaultSites) {
      EXPECT_FALSE(inert.fires(row.site, 0, 1)) << row.token;
    }
  }
  EXPECT_THROW(SweepFaultPlan::parse("rate=0.5"), std::runtime_error);  // no sites
  EXPECT_THROW(SweepFaultPlan::parse("rate=2,sites=all"), std::runtime_error);
  EXPECT_THROW(SweepFaultPlan::parse("sites=unknown_site"), std::runtime_error);
  EXPECT_THROW(SweepFaultPlan::parse("shiny=1"), std::runtime_error);
}

TEST(DistChaos, WorkerRejectsAServeSite) {
  // The worker parses its plan against the sweep table only, from --faults
  // and from $PS_SWEEP_FAULTS alike: a daemon site is an unknown site.
  std::string dir = util::make_temp_dir("chaos_foreign_site");
  const std::string serve_site = "seed=1,rate=1,sites=die_after_claim";
  util::Subprocess flag = util::Subprocess::spawn(
      {PS_SWEEP_BIN, "worker", "--spool", dir + "/spool", "--faults", serve_site},
      "", dir + "/flag.err");
  EXPECT_EQ(flag.wait(), 1);
  EXPECT_NE(util::read_file(dir + "/flag.err").find("unknown site 'die_after_claim'"),
            std::string::npos)
      << util::read_file(dir + "/flag.err");

  ASSERT_EQ(::setenv("PS_SWEEP_FAULTS", serve_site.c_str(), 1), 0);
  util::Subprocess env = util::Subprocess::spawn(
      {PS_SWEEP_BIN, "worker", "--spool", dir + "/spool"}, "", dir + "/env.err");
  const int env_exit = env.wait();
  ::unsetenv("PS_SWEEP_FAULTS");
  EXPECT_EQ(env_exit, 1);
  EXPECT_NE(util::read_file(dir + "/env.err").find("unknown site 'die_after_claim'"),
            std::string::npos)
      << util::read_file(dir + "/env.err");
  EXPECT_FALSE(util::path_exists(dir + "/spool"));  // rejected before any claim
  util::remove_tree(dir);
}

TEST(DistChaos, Fig8SoakUnderMixedFaultsMatchesEveryGoldenFingerprint) {
  // The acceptance fence of this whole layer: the Fig-8 grid under a
  // mixed-fault storm still produces the exact committed digests. The
  // schedule is seeded, so the storm is the same storm every run.
  std::vector<std::uint64_t> golden;
  std::vector<core::ScenarioConfig> grid = fig8_grid(&golden);
  ASSERT_EQ(grid.size(), 27u);

  const std::string faults =
      "seed=20150525,rate=0.45,max_attempt=2,"
      "sites=die_before_publish+torn_publish+corrupt_result";
  // Sanity: the schedule actually injects something on this geometry
  // (8 shards at 4 workers), else the soak soaks nothing.
  SweepFaultPlan plan = SweepFaultPlan::parse(faults);
  int injected = 0;
  for (std::uint64_t shard = 0; shard < 8; ++shard) {
    for (std::uint64_t attempt = 1; attempt <= 2; ++attempt) {
      for (const auto& row : kSweepFaultSites) {
        injected += plan.fires(row.site, shard, attempt) ? 1 : 0;
      }
    }
  }
  ASSERT_GT(injected, 0);

  DriverOptions options = chaos_options();
  options.workers = 4;
  options.max_attempts = 4;  // faults stop at attempt 2; headroom after that
  options.golden = golden;
  options.worker_args = {"--faults", faults};
  DriverReport report = run_distributed(grid, options);

  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.resubmitted_shards, 1u);  // the storm was weathered, not missed
  ASSERT_EQ(report.results.size(), 27u);
  for (std::size_t i = 0; i < 27u; ++i) {
    EXPECT_EQ(report.fingerprints[i], golden[i]) << "cell " << i;
  }
}

TEST(DistChaos, HungWorkerLeaseIsReclaimedMidWave) {
  // hang_after_claim freezes the holder before its first heartbeat: only
  // the lease can catch it. The driver must kill the hung process and
  // re-issue the shard while other shards keep flowing — then finish the
  // grid exactly.
  std::vector<core::ScenarioConfig> grid = small_grid(4);
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);

  DriverOptions options = chaos_options();
  options.workers = 2;
  options.shards = 2;
  options.worker_args = {
      "--faults", "seed=3,rate=1,max_attempt=1,sites=hang_after_claim,shards=0"};
  DriverReport report = run_distributed(grid, options);

  EXPECT_GE(report.reclaimed_leases, 1u);
  EXPECT_GE(report.resubmitted_shards, 1u);
  ASSERT_EQ(report.results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(core::fingerprint(report.results[i]),
              core::fingerprint(in_process[i]))
        << "cell " << i;
  }
}

TEST(DistChaos, CorruptAndTornPublishesAreRetriedNotFatal) {
  // Every checksum casualty is a counted, retriable worker fault: a torn
  // publish under the final name (no seal at all) and a bit-flipped
  // sealed document (seal present, body rotten). Driven separately so
  // both rejection paths demonstrably execute.
  std::vector<core::ScenarioConfig> grid = small_grid(4);
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);

  for (const char* faults :
       {"seed=5,rate=1,max_attempt=1,sites=torn_publish",
        "seed=5,rate=1,max_attempt=1,sites=corrupt_result"}) {
    DriverOptions options = chaos_options();
    options.workers = 2;
    options.shards = 2;
    options.worker_args = {"--faults", faults};
    DriverReport report = run_distributed(grid, options);

    EXPECT_GE(report.corrupt_documents, 2u) << faults;  // both shards' attempt 1
    EXPECT_GE(report.resubmitted_shards, 2u) << faults;
    ASSERT_EQ(report.results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(core::fingerprint(report.results[i]),
                core::fingerprint(in_process[i]))
          << faults << " cell " << i;
    }
  }
}

TEST(DistChaos, PreSeededGarbageInSpoolIsHandledByClass) {
  // Garbage already sitting in the results directory when the drive
  // starts: a current-token file that fails its checksum is a corrupt
  // document (retried); a foreign-token file is fenced litter (dropped).
  // Neither may surface in the merge.
  std::vector<core::ScenarioConfig> grid = small_grid(4);
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);

  std::string spool = util::make_temp_dir("ps-chaos-garbage-");
  util::ensure_dir(spool_results_dir(spool));
  util::write_file_atomic(
      spool_results_dir(spool) + "/" + results_file_name(0, 1),
      "shard_results {\nnot even close\n");  // torn: no seal
  util::write_file_atomic(
      spool_results_dir(spool) + "/" + results_file_name(1, 99),
      "zombie bytes from a run long gone\n");  // stale fencing token

  DriverOptions options = chaos_options();
  options.workers = 2;
  options.shards = 2;
  options.spool_dir = spool;
  DriverReport report = run_distributed(grid, options);

  EXPECT_GE(report.corrupt_documents, 1u);
  EXPECT_GE(report.fenced_publishes, 1u);
  ASSERT_EQ(report.results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(core::fingerprint(report.results[i]),
              core::fingerprint(in_process[i]))
        << "cell " << i;
  }
  util::remove_tree(spool);
}

/// Shard `id` of `grid` cut into `shard_count` contiguous, even shards —
/// the driver's own partition when the cell count divides evenly.
Shard even_shard(const std::vector<core::ScenarioConfig>& grid,
                 std::size_t shard_count, std::uint64_t id) {
  Shard shard;
  shard.id = id;
  const std::size_t per = grid.size() / shard_count;
  for (std::size_t i = id * per; i < (id + 1) * per; ++i) {
    shard.cells.push_back({i, grid[i]});
  }
  return shard;
}

/// A results document that passes its checksum and parse but lies: the
/// first record's fingerprint is off by one bit.
std::string sealed_but_lying_results(const Shard& shard) {
  ShardResults results = run_shard(shard);
  results.records.front().fingerprint ^= 1;
  return serialize_shard_results(results);
}

/// Runs `drive` and returns the message it throws ("" if it returns).
template <typename Fn>
std::string thrown_message(Fn&& drive) {
  try {
    drive();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(DistChaos, SealedButLyingPublishIsFatalOnTheLivePath) {
  // A current-token results file with a valid checksum whose record does
  // not re-fingerprint is a deterministic fault (serde infidelity or
  // version skew): retrying cannot fix it, so the live drive throws.
  std::vector<core::ScenarioConfig> grid = small_grid(4);
  std::string spool = util::make_temp_dir("ps-chaos-lying-");
  util::ensure_dir(spool_results_dir(spool));
  util::write_file_atomic(
      spool_results_dir(spool) + "/" + results_file_name(0, 1),
      sealed_but_lying_results(even_shard(grid, 2, 0)));

  DriverOptions options = chaos_options();
  options.workers = 2;
  options.shards = 2;
  options.spool_dir = spool;
  std::string message = thrown_message([&] { run_distributed(grid, options); });
  EXPECT_NE(message.find("fingerprint mismatch"), std::string::npos) << message;
  util::remove_tree(spool);
}

TEST(DistChaos, SealedButLyingPublishIsRecomputedOnResume) {
  // The same lie found by a resume is a corpse of the dead run, not a
  // live fault: it is counted as a corrupt document and recomputed.
  std::vector<core::ScenarioConfig> grid = small_grid(4);
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);
  std::string spool = util::make_temp_dir("ps-chaos-lying-resume-");

  DriverOptions options = chaos_options();
  options.workers = 2;
  options.shards = 2;
  options.spool_dir = spool;
  (void)run_distributed(grid, options);

  util::write_file_atomic(
      spool_results_dir(spool) + "/" + results_file_name(1, 1),
      sealed_but_lying_results(even_shard(grid, 2, 1)));
  options.resume = true;
  DriverReport repaired = run_distributed(grid, options);
  EXPECT_EQ(repaired.resumed_cells, 2u);  // only shard 0 adopted
  EXPECT_GE(repaired.corrupt_documents, 1u);
  ASSERT_EQ(repaired.results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(core::fingerprint(repaired.results[i]),
              core::fingerprint(in_process[i]))
        << "cell " << i;
  }
  util::remove_tree(spool);
}

TEST(DistChaos, GoldenManifestDivergenceIsFatal) {
  std::vector<core::ScenarioConfig> grid = small_grid(4);
  std::string spool = util::make_temp_dir("ps-chaos-golden-");
  DriverOptions options = chaos_options();
  options.workers = 2;
  options.shards = 2;
  options.spool_dir = spool;  // a failed drive keeps its spool
  for (const core::ScenarioResult& result : core::run_sweep(grid, 1)) {
    options.golden.push_back(core::fingerprint(result));
  }
  options.golden[2] ^= 1;
  std::string message = thrown_message([&] { run_distributed(grid, options); });
  EXPECT_NE(message.find("diverged from the golden manifest"), std::string::npos)
      << message;
  util::remove_tree(spool);
}

TEST(DistChaos, QuarantineCompletesTheRestOfTheGrid) {
  // A shard that fails deterministically on every attempt: with
  // quarantine on, the driver records its cells and finishes everything
  // else instead of throwing the whole grid away.
  std::vector<core::ScenarioConfig> grid = small_grid(4);
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);

  DriverOptions options = chaos_options();
  options.workers = 2;
  options.shards = 2;
  options.max_attempts = 2;
  options.quarantine = true;
  options.worker_args = {
      "--faults",
      "seed=9,rate=1,max_attempt=99,sites=die_before_publish,shards=0"};
  DriverReport report = run_distributed(grid, options);

  EXPECT_FALSE(report.complete);
  ASSERT_EQ(report.quarantined_cells, (std::vector<std::uint64_t>{0, 1}));
  ASSERT_EQ(report.results.size(), grid.size());
  EXPECT_EQ(report.fingerprints[0], 0u);  // quarantined cells: empty slots
  EXPECT_EQ(report.fingerprints[1], 0u);
  for (std::size_t i = 2; i < grid.size(); ++i) {
    EXPECT_EQ(core::fingerprint(report.results[i]),
              core::fingerprint(in_process[i]))
        << "cell " << i;
  }
}

TEST(DistChaos, ResumeAdoptsValidResultsAndRecomputesTheRest) {
  // The killed-driver path, driven deterministically: complete a spool,
  // then resume it as-is (everything adopted, zero workers), then damage
  // it (one results file deleted, one bit-flipped) and resume again — the
  // driver must recompute exactly the damaged shards and nothing else.
  std::vector<core::ScenarioConfig> grid = small_grid(6);
  std::vector<core::ScenarioResult> in_process = core::run_sweep(grid, 1);
  std::string spool = util::make_temp_dir("ps-chaos-resume-");

  DriverOptions options = chaos_options();
  options.workers = 2;
  options.shards = 3;
  options.spool_dir = spool;
  DriverReport first = run_distributed(grid, options);
  ASSERT_EQ(first.results.size(), grid.size());

  // Resume over the intact spool: pure adoption.
  options.resume = true;
  DriverReport adopted = run_distributed(grid, options);
  EXPECT_EQ(adopted.resumed_cells, grid.size());
  EXPECT_EQ(adopted.workers_spawned, 0u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(core::fingerprint(adopted.results[i]),
              core::fingerprint(in_process[i]))
        << "cell " << i;
  }

  // Damage the spool: shard 1's results vanish, shard 2's rot.
  std::string results_dir = spool_results_dir(spool);
  util::remove_file(results_dir + "/" + results_file_name(1, 1));
  std::string rotten_path = results_dir + "/" + results_file_name(2, 1);
  std::string rotten = util::read_file(rotten_path);
  rotten[rotten.size() / 2] ^= 0x01;
  util::write_file_atomic(rotten_path, rotten);

  DriverReport repaired = run_distributed(grid, options);
  EXPECT_EQ(repaired.resumed_cells, 2u);       // only shard 0 adopted
  EXPECT_GE(repaired.corrupt_documents, 1u);   // the rotten file was counted
  EXPECT_GT(repaired.workers_spawned, 0u);
  ASSERT_EQ(repaired.results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(core::fingerprint(repaired.results[i]),
              core::fingerprint(in_process[i]))
        << "cell " << i;
  }
  util::remove_tree(spool);
}

TEST(DistChaos, ResumeRefusesAForeignGrid) {
  // A spool pins its grid via checksummed grid.meta: resuming different
  // cells against it must fail loudly, never merge mismatched results.
  std::vector<core::ScenarioConfig> grid = small_grid(4);
  std::string spool = util::make_temp_dir("ps-chaos-foreign-");

  DriverOptions options = chaos_options();
  options.workers = 2;
  options.spool_dir = spool;
  (void)run_distributed(grid, options);

  options.resume = true;
  std::vector<core::ScenarioConfig> other = small_grid(5);
  EXPECT_THROW(run_distributed(other, options), std::runtime_error);
  // And a spool already holding a grid refuses a fresh (non-resume) drive.
  options.resume = false;
  EXPECT_THROW(run_distributed(grid, options), std::runtime_error);
  // Resuming an empty directory has nothing to adopt — also loud.
  std::string empty = util::make_temp_dir("ps-chaos-empty-");
  options.resume = true;
  options.spool_dir = empty;
  EXPECT_THROW(run_distributed(grid, options), std::runtime_error);
  util::remove_tree(spool);
  util::remove_tree(empty);
}

TEST(DistChaos, CommittedGoldenArtifactsMatchTheHeader) {
  // data/fig8_golden.cells and data/fig8_golden.manifest are the CI chaos
  // step's inputs; they must stay byte-consistent with tests/fig8_golden.h
  // (the single source of truth). Regenerate with PS_UPDATE_GOLDEN=1 after
  // an intentional golden change.
  std::vector<std::uint64_t> golden;
  std::vector<core::ScenarioConfig> grid = fig8_grid(&golden);
  std::string cells_doc = serialize_cell_grid(grid);
  std::string manifest_doc = serialize_manifest(golden);

  std::string cells_path = std::string(PS_SOURCE_DIR) + "/data/fig8_golden.cells";
  std::string manifest_path =
      std::string(PS_SOURCE_DIR) + "/data/fig8_golden.manifest";
  if (std::getenv("PS_UPDATE_GOLDEN") != nullptr) {
    util::ensure_dir(std::string(PS_SOURCE_DIR) + "/data");
    util::write_file_atomic(cells_path, cells_doc);
    util::write_file_atomic(manifest_path, manifest_doc);
  }
  ASSERT_TRUE(util::path_exists(cells_path))
      << "missing committed artifact; regenerate with PS_UPDATE_GOLDEN=1";
  EXPECT_EQ(util::read_file(cells_path), cells_doc);
  EXPECT_EQ(util::read_file(manifest_path), manifest_doc);
}

}  // namespace
}  // namespace ps::dist
