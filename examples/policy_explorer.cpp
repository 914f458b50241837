// Interactive exploration of the §III model: for a cluster description
// (built-in Curie or an INI file) sweep the powercap fraction and print,
// per policy, the mechanism split the offline algorithm would choose and
// the resulting computational load W.
//
//   ./build/examples/policy_explorer [cluster.ini] [--distributed N]
//
// INI format (all keys optional; defaults are the Curie values):
//   [cluster]
//   racks = 56
//   chassis_per_rack = 5
//   nodes_per_chassis = 18
//   [power]
//   down_watts = 14
//   idle_watts = 117
//   chassis_infra_watts = 248
//   rack_infra_watts = 900
//   freq_ghz   = 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7
//   freq_watts = 193, 213, 234, 248, 269, 289, 317, 358
//   [model]
//   degmin = 1.63
//   mix_floor_ghz = 2.0
//
// A second section checks the model against *measured* mini-scenarios: a
// {policy} x {lambda} grid of deterministic 2-rack replays swept in
// parallel through the sweep engine (core/sweep.h) — or, with
// `--distributed N`, across N worker processes through the distributed
// driver (dist/driver.h) with byte-identical stdout.
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "apps/cli_flags.h"
#include "cluster/degradation.h"
#include "cluster/from_config.h"
#include "core/model.h"
#include "core/sweep.h"
#include "dist/driver.h"
#include "metrics/report.h"
#include "util/config.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace ps;
  std::size_t distributed = 0;
  std::string ini_path;
  const cli::Flag flags[] = {
      {"--distributed", "N", "measure across N worker processes", [&](auto f, auto& v) {
         distributed = cli::integer<std::size_t>(f, v, 1);
       }},
  };
  try {
    cli::parse(std::vector<std::string>(argv + 1, argv + argc), flags,
               [&](const std::string& word) { ini_path = word; });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "policy_explorer: %s\n%s", e.what(),
                 cli::usage("policy_explorer [cluster.ini] [flags]", flags).c_str());
    return 1;
  }
  util::Config ini =
      ini_path.empty() ? util::Config::parse("") : util::Config::load_file(ini_path);
  cluster::PowerModel pm = cluster::power_model_from_config(ini);
  double degmin = ini.get_f64_or("model", "degmin", 1.63);
  double mix_floor = ini.get_f64_or("model", "mix_floor_ghz", 2.0);

  std::printf("%s\n\n", pm.describe().c_str());

  cluster::DegradationModel degradation(pm.frequencies(), degmin);
  double n = pm.topology().total_nodes();
  double infra = pm.infra_watts_all_on();

  auto params_at = [&](double floor_ghz) {
    core::model::ClusterParams params;
    params.n = n;
    params.p_max = pm.max_watts();
    params.p_min = pm.frequencies()
                       .watts(pm.frequencies().lowest_at_or_above(floor_ghz).value());
    params.p_off = pm.down_watts();
    params.degmin = degradation.factor_at_ghz(floor_ghz, degmin);
    return params;
  };
  core::model::ClusterParams full = params_at(pm.frequencies().min().ghz);
  core::model::ClusterParams mix = params_at(mix_floor);

  std::printf("rho (published convention, degmin %.2f): %+.3f => %s preferred\n",
              degmin, core::model::rho(full),
              core::model::rho(full) <= 0 ? "switch-off" : "DVFS");
  std::printf("DVFS-only feasible down to lambda = %.1f%%; MIX floor %.1f GHz "
              "needs both mechanisms below %.1f%%\n\n",
              100.0 * core::model::mix_threshold_lambda(full), mix_floor,
              100.0 * core::model::mix_threshold_lambda(mix));

  metrics::TextTable table({"lambda", "budget (kW)", "AUTO decision", "Noff",
                            "Ndvfs", "W (% of N)", "MIX decision", "MIX W (%)"});
  for (double lambda = 0.30; lambda <= 1.001; lambda += 0.05) {
    double cap = lambda * pm.max_cluster_watts();
    double node_budget = cap - infra;
    core::model::Split full_split = core::model::optimal_split(node_budget, full);
    core::model::Split mix_split = core::model::optimal_split(node_budget, mix);
    table.add_row({strings::format("%.0f%%", lambda * 100.0),
                   strings::format("%.0f", cap / 1000.0),
                   core::model::to_string(full_split.mechanism),
                   strings::format("%.0f", full_split.n_off),
                   strings::format("%.0f", full_split.n_dvfs),
                   strings::format("%.1f%%", 100.0 * full_split.work / n),
                   core::model::to_string(mix_split.mechanism),
                   strings::format("%.1f%%", 100.0 * mix_split.work / n)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nW counts a DVFS'd node as 1/degmin of a full node (paper §III); "
              "infrastructure draw is budgeted before the node-level model.\n");

  // Measured mini-scenarios: the model's W against what a real replay of a
  // 2-rack machine achieves, one sweep cell per (policy, lambda). The
  // section header stays identical in both execution modes so a
  // distributed run diffs clean against an in-process one.
  std::printf("\nmeasured 2-rack mini-scenarios (parallel sweep):\n");
  workload::GeneratorParams mini = workload::params_for(workload::Profile::MedianJob);
  mini.name = "explorer";
  mini.span = sim::hours(1);
  mini.job_count = 600;
  mini.w_huge = 0.0;

  std::vector<core::SweepCell> cells;
  for (core::Policy policy : {core::Policy::Shut, core::Policy::Dvfs, core::Policy::Mix}) {
    for (double lambda : {0.4, 0.6, 0.8}) {
      core::ScenarioConfig config;
      config.custom_workload = mini;
      config.racks = 2;
      config.seed = 20150525;
      config.powercap.policy = policy;
      config.cap_lambda = lambda;
      cells.push_back({strings::format("%s @ %.0f%%", core::to_string(policy),
                                       lambda * 100.0),
                       config});
    }
  }
  std::vector<core::ScenarioResult> measured;
  if (distributed > 0) {
    std::vector<core::ScenarioConfig> configs;
    configs.reserve(cells.size());
    for (const core::SweepCell& cell : cells) configs.push_back(cell.config);
    dist::DriverOptions options;
    options.workers = distributed;
    dist::DriverReport report = dist::run_distributed(configs, options);
    measured = std::move(report.results);
    std::fprintf(stderr, "(%zu cells over %zu worker processes, %zu shards)\n",
                 cells.size(), distributed, report.shard_count);
  } else {
    core::SweepEngine engine;
    measured = engine.run(cells);
    // Thread count is machine-dependent: stderr keeps stdout byte-identical
    // at any PS_SWEEP_THREADS value.
    std::fprintf(stderr, "(%zu cells on %zu threads)\n", cells.size(),
                 engine.thread_count());
  }

  metrics::TextTable runs({"policy @ lambda", "work (core-h)", "effective (% max)",
                           "energy (MJ)", "cap violation (s)"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& s = measured[i].summary;
    runs.add_row({cells[i].label,
                  strings::format("%.0f", s.work_core_seconds / 3600.0),
                  strings::format("%.1f%%",
                                  100.0 * s.effective_work_core_seconds /
                                      s.max_possible_work),
                  strings::format("%.2f", s.energy_joules / 1e6),
                  strings::format("%.0f", s.cap_violation_seconds)});
  }
  std::printf("%s", runs.render().c_str());
  return 0;
}
