// Distributed sweep quickstart: the same grid run twice — in-process
// through core::SweepEngine and across worker *processes* through
// dist::run_distributed — and checked bit-identical, the contract the
// whole dist layer is built around (docs/ARCHITECTURE.md, "The dist
// layer").
//
//   ./build/distributed_sweep [workers]
//
// workers is an integer in 1..64 (default 2); a malformed count prints the
// usage and exits 1.
//
// The driver launches `ps-sweep` worker processes (found next to this
// binary; override with PS_SWEEP_WORKER_BIN), spools shards through a
// private temp directory, and merges (index, fingerprint, result) records
// index-ordered with per-cell fingerprint verification. Pointing the spool
// at a shared filesystem and launching the workers on other machines is
// the same protocol — see `ps-sweep drive --help` style usage in
// src/apps/ps_sweep_main.cc.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "apps/cli_flags.h"
#include "core/fingerprint.h"
#include "core/sweep.h"
#include "dist/driver.h"
#include "util/strings.h"

namespace {
/// Far above the grid's 6 cells (a worker beyond the shard count idles);
/// the bound keeps a stray huge count out of dist::run_distributed.
constexpr std::size_t kMaxWorkers = 64;
}  // namespace

int main(int argc, char** argv) {
  using namespace ps;
  std::size_t workers = 2;
  try {
    if (argc > 1) workers = cli::integer<std::size_t>("workers", argv[1], 1, kMaxWorkers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "distributed_sweep: %s\nusage: distributed_sweep [workers]\n",
                 e.what());
    return 1;
  }

  // A small {policy} x {lambda} grid of deterministic 1-rack replays.
  workload::GeneratorParams params =
      workload::params_for(workload::Profile::MedianJob);
  params.name = "dist-example";
  params.span = sim::minutes(30);
  params.job_count = 200;
  params.w_huge = 0.0;

  std::vector<core::ScenarioConfig> cells;
  std::vector<std::string> labels;
  for (core::Policy policy : {core::Policy::Shut, core::Policy::Dvfs, core::Policy::Mix}) {
    for (double lambda : {0.4, 0.6}) {
      core::ScenarioConfig config;
      config.custom_workload = params;
      config.racks = 1;
      config.seed = 20150525;
      config.powercap.policy = policy;
      config.cap_lambda = lambda;
      cells.push_back(config);
      labels.push_back(strings::format("%4s @ %.0f%%", core::to_string(policy),
                                       lambda * 100.0));
    }
  }

  // In-process reference sweep (single-threaded for a clean baseline).
  std::vector<core::ScenarioResult> reference = core::run_sweep(cells, 1);

  // The same grid across worker processes.
  dist::DriverOptions options;
  options.workers = workers;
  dist::DriverReport report = dist::run_distributed(cells, options);

  std::printf("cell            energy (MJ)   launched   fingerprint        match\n");
  bool all_match = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::uint64_t expected = core::fingerprint(reference[i]);
    bool match = report.fingerprints[i] == expected;
    all_match &= match;
    std::printf("%-14s  %11.2f  %9llu   %016llx  %s\n", labels[i].c_str(),
                report.results[i].summary.energy_joules / 1e6,
                static_cast<unsigned long long>(report.results[i].summary.launched_jobs),
                static_cast<unsigned long long>(report.fingerprints[i]),
                match ? "yes" : "NO");
  }
  std::printf("\n%zu cells over %zu workers (%zu shards, %zu spawned, "
              "%zu resubmitted): distributed run %s the in-process sweep\n",
              cells.size(), workers, report.shard_count, report.workers_spawned,
              report.resubmitted_shards,
              all_match ? "bit-identically reproduces" : "DIVERGED from");
  return all_match ? 0 : 1;
}
