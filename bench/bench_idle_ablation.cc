// Reproduces the paper's §VII-C deactivation experiment: "We also have done
// several runs with DVFS and switch-off mechanisms deactivated. The only
// solution for our algorithm is to let nodes idle. As expected, this
// solution has the worst work (about 40% lower than other modes), while
// keeping about the same energy consumption."
#include "bench_common.h"

#include <algorithm>

#include "core/sweep.h"

int main() {
  using namespace ps;
  bench::print_header("Ablation — mechanisms deactivated (IDLE) vs real policies");

  const double lambda = 0.40;
  std::vector<core::ScenarioResult> results = core::run_sweep(
      {bench::scenario(workload::Profile::MedianJob, core::Policy::Idle, lambda),
       bench::scenario(workload::Profile::MedianJob, core::Policy::Shut, lambda),
       bench::scenario(workload::Profile::MedianJob, core::Policy::Dvfs, lambda),
       bench::scenario(workload::Profile::MedianJob, core::Policy::Mix, lambda)});
  const core::ScenarioResult& idle = results[0];
  const core::ScenarioResult& shut = results[1];
  const core::ScenarioResult& dvfs = results[2];
  const core::ScenarioResult& mix = results[3];

  bench::print_section("medianjob, 1 h window at 40%");
  bench::print_run_summary("40%/IDLE", idle);
  bench::print_run_summary("40%/SHUT", shut);
  bench::print_run_summary("40%/DVFS", dvfs);
  bench::print_run_summary("40%/MIX", mix);

  double best_work = std::max({shut.summary.work_core_seconds,
                               dvfs.summary.work_core_seconds,
                               mix.summary.work_core_seconds});
  std::printf("\nIDLE work deficit vs the best real policy: %.1f%% lower "
              "(paper: about 40%% lower)\n",
              100.0 * (1.0 - idle.summary.work_core_seconds / best_work));
  std::printf("IDLE energy vs DVFS energy: %.1f%% (paper: \"about the same "
              "energy consumption\")\n",
              100.0 * idle.summary.energy_joules / dvfs.summary.energy_joules);

  std::printf("\nwhy: idling sheds only %.0f W per node (busy->idle) instead of "
              "%.0f W (busy->off) or a DVFS-scaled job's partial draw, so far "
              "more capacity must sit unused to meet the same cap.\n",
              358.0 - 117.0, 358.0 - 14.0);
  return 0;
}
