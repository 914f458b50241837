// Reproduces paper Fig 6: "System utilization for the MIX policy in terms
// of cores (top) and power (bottom) during the 24 hours workload with a
// reservation of 1 hour of 40% of total power", plus the §VII-C text
// comparison at 40%: DVFS ~ MIX ~ 85% of the total possible work while
// SHUT reaches ~94%, with MIX consuming the least energy.
//
// The four scenarios run as one parallel sweep; a final section extends
// the day to a *multi-window* cap schedule (several windows planned
// jointly by the incremental offline planner — the §VII day generalized).
#include "bench_common.h"

#include <algorithm>

#include "core/sweep.h"

int main() {
  using namespace ps;
  bench::print_header("Fig 6 — 24 h workload, MIX policy, 1 h reservation at 40%");

  core::SweepEngine engine;
  std::vector<core::SweepCell> cells = {
      {"40%/MIX", bench::scenario(workload::Profile::Day24h, core::Policy::Mix, 0.40)},
      {"40%/SHUT", bench::scenario(workload::Profile::Day24h, core::Policy::Shut, 0.40)},
      {"40%/DVFS", bench::scenario(workload::Profile::Day24h, core::Policy::Dvfs, 0.40)},
      {"100%/None", bench::scenario(workload::Profile::Day24h, core::Policy::None, 1.0)},
  };
  std::vector<core::ScenarioResult> results = engine.run(cells);
  const core::ScenarioResult& mix = results[0];
  const core::ScenarioResult& shut = results[1];
  const core::ScenarioResult& dvfs = results[2];
  const core::ScenarioResult& none = results[3];

  bench::print_cap_annotation(mix);
  bench::print_section("cores by state (top panel)");
  std::printf("%s", bench::cores_chart(mix).c_str());
  bench::print_section("power by origin (bottom panel)");
  std::printf("%s", bench::watts_chart(mix).c_str());

  bench::print_section("run summary");
  std::printf("%s\n", mix.summary.describe().c_str());

  bench::print_section("§VII-C comparison at 40% over 24 h (work & energy)");
  bench::print_run_summary("100%/None", none);
  bench::print_run_summary("40%/SHUT", shut);
  bench::print_run_summary("40%/DVFS", dvfs);
  bench::print_run_summary("40%/MIX", mix);

  double max_work = none.summary.work_core_seconds;
  std::printf(
      "\noccupancy work vs the uncapped run:  SHUT %.1f%%, DVFS %.1f%%, MIX %.1f%%\n",
      100.0 * shut.summary.work_core_seconds / max_work,
      100.0 * dvfs.summary.work_core_seconds / max_work,
      100.0 * mix.summary.work_core_seconds / max_work);
  double max_eff = none.summary.effective_work_core_seconds;
  std::printf(
      "effective work vs the uncapped run:  SHUT %.1f%%, DVFS %.1f%%, MIX %.1f%% "
      "(paper §VII-C: SHUT ~94%%, DVFS ~ MIX ~85%% — effective work corrects "
      "occupancy for the DVFS slowdown, which is how the slowed policies land "
      "below SHUT)\n",
      100.0 * shut.summary.effective_work_core_seconds / max_eff,
      100.0 * dvfs.summary.effective_work_core_seconds / max_eff,
      100.0 * mix.summary.effective_work_core_seconds / max_eff);
  double min_energy = std::min({shut.summary.energy_joules, dvfs.summary.energy_joules,
                                mix.summary.energy_joules});
  std::printf("lowest raw energy among the capped policies: %s\n",
              min_energy == mix.summary.energy_joules    ? "MIX"
              : min_energy == shut.summary.energy_joules ? "SHUT"
                                                         : "DVFS");
  auto efficiency = [](const core::ScenarioResult& r) {
    return r.summary.energy_joules /
           std::max(r.summary.effective_work_core_seconds, 1.0);
  };
  double e_shut = efficiency(shut), e_dvfs = efficiency(dvfs), e_mix = efficiency(mix);
  std::printf("energy per unit of effective work: SHUT %.1f, DVFS %.1f, MIX %.1f "
              "J/core-s — MIX pairs shutdown with the apps' energy-optimal "
              "2.0-2.7 GHz range (paper: \"the energy consumption is the lowest "
              "in the MIX mode\"; on raw joules DVFS can rank lower simply by "
              "computing less)\n",
              e_shut, e_dvfs, e_mix);
  std::printf("utilization right after the window snaps back up (paper: \"system "
              "utilization ... increases directly to nearly 100%%\")\n");

  bench::print_section("extension — the same day under a 3-window cap schedule");
  core::ScenarioConfig day =
      bench::scenario(workload::Profile::Day24h, core::Policy::Mix, 1.0);
  day.cap_windows = {
      {0.60, sim::hours(2), sim::hours(3), -1},    // overnight grid limit
      {0.40, sim::hours(11), sim::hours(2), -1},   // midday peak tariff
      {0.60, sim::hours(19), sim::hours(2), -1},   // evening ramp
  };
  core::ScenarioResult sched = core::run_scenario(day);
  for (const auto& window : sched.windows) {
    std::printf("window [%s, %s) at %s W\n",
                strings::human_duration_ms(window.start).c_str(),
                strings::human_duration_ms(window.end).c_str(),
                strings::with_commas(static_cast<std::int64_t>(window.watts)).c_str());
  }
  std::printf("%zu offline plans (switch-off reservations registered per "
              "shutdown-bearing window)\n", sched.plans.size());
  bench::print_run_summary("3-window MIX", sched);
  std::printf("%s", bench::watts_chart(sched).c_str());
  std::printf("cap-violation across the whole schedule: %.0f s\n",
              sched.summary.cap_violation_seconds);
  return 0;
}
