// Shared helpers for the reproduction benches: standard scenario setup and
// the paper-style chart/table rendering used by Fig 6/7/8.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/curie.h"
#include "core/experiment.h"
#include "metrics/report.h"
#include "util/ascii_chart.h"
#include "util/check.h"
#include "util/strings.h"

namespace ps::bench {

inline constexpr std::uint64_t kSeed = 20150525;  // IPDPS 2015 opening day

/// Standard experiment wiring: full-scale Curie, cap window centered in the
/// profile span (the paper's "one hour in the middle").
inline core::ScenarioConfig scenario(workload::Profile profile, core::Policy policy,
                                     double lambda) {
  core::ScenarioConfig config;
  config.profile = profile;
  config.seed = kSeed;
  config.racks = cluster::curie::kRacks;
  config.powercap.policy = policy;
  config.cap_lambda = lambda;
  return config;
}

/// Level count of a Curie series; the charts label and price levels with
/// the Curie table, so any other table is refused.
inline std::size_t curie_freq_count(const core::ScenarioResult& result) {
  std::size_t freq_count = result.samples.front().busy_by_freq.size();
  PS_CHECK_MSG(freq_count == cluster::curie::kFreqCount,
               "bench charts need the Curie frequency table");
  return freq_count;
}

inline void print_header(const std::string& title) {
  std::string bar(title.size() + 4, '=');
  std::printf("%s\n= %s =\n%s\n", bar.c_str(), title.c_str(), bar.c_str());
}

inline void print_section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Top panel of Fig 6/7: cores by state over time (stacked): busy cores per
/// DVFS level (highest first = darkest in the paper), plus switched-off
/// cores as the cross-hatched band.
inline std::string cores_chart(const core::ScenarioResult& result,
                               std::size_t width = 110, std::size_t height = 16) {
  const auto& samples = result.samples;
  if (samples.empty()) return "(no samples)\n";
  std::size_t freq_count = curie_freq_count(result);
  const double cores_per_node = cluster::curie::kCoresPerNode;

  std::vector<std::int64_t> times;
  times.reserve(samples.size());
  for (const auto& s : samples) times.push_back(s.t);

  static const char kFills[] = {'#', '@', '%', '*', '+', '=', '-', ':'};
  std::vector<util::ascii::Layer> layers;
  // Highest frequency at the bottom of the stack (the paper's black area).
  for (std::size_t f = freq_count; f-- > 0;) {
    bool used = false;
    std::vector<double> values;
    values.reserve(samples.size());
    for (const auto& s : samples) {
      double v = s.busy_by_freq[f] * cores_per_node;
      used |= v > 0;
      values.push_back(v);
    }
    if (!used) continue;
    util::ascii::Layer layer;
    layer.name = strings::format("%.1f GHz cores", cluster::curie::kFreqGhz[f]);
    layer.fill = kFills[(freq_count - 1 - f) % sizeof(kFills)];
    layer.values = std::move(values);
    layers.push_back(std::move(layer));
  }
  {
    util::ascii::Layer off;
    off.name = "switched-off cores";
    off.fill = 'x';
    off.values.reserve(samples.size());
    bool used = false;
    for (const auto& s : samples) {
      double v = s.off_nodes * cores_per_node;
      used |= v > 0;
      off.values.push_back(v);
    }
    if (used) layers.push_back(std::move(off));
  }
  if (layers.empty()) return "(machine fully idle)\n";

  util::ascii::ChartOptions options;
  options.width = width;
  options.height = height;
  options.y_max = static_cast<double>(result.total_cores);
  options.y_label = "cores (stacked by state)";
  options.x_label = "time";
  return util::ascii::stacked_chart(times, layers, options);
}

/// Bottom panel of Fig 6/7: watts by origin over time (stacked): idle floor
/// of the powered machine, plus the busy surplus per frequency. The cap
/// window is annotated separately by the caller.
inline std::string watts_chart(const core::ScenarioResult& result,
                               std::size_t width = 110, std::size_t height = 14) {
  const auto& samples = result.samples;
  if (samples.empty()) return "(no samples)\n";
  std::size_t freq_count = curie_freq_count(result);
  const double idle_watts = cluster::curie::kIdleWatts;
  static const char kFills[] = {'#', '@', '%', '*', '+', '=', '-', ':'};

  std::vector<std::int64_t> times;
  times.reserve(samples.size());
  for (const auto& s : samples) times.push_back(s.t);

  std::vector<util::ascii::Layer> layers;
  {
    util::ascii::Layer floor;
    floor.name = "idle floor + infra";
    floor.fill = '.';
    floor.values.reserve(samples.size());
    for (const auto& s : samples) {
      double busy_surplus = 0.0;
      for (std::size_t f = 0; f < freq_count; ++f) {
        busy_surplus += s.busy_by_freq[f] * (cluster::curie::kFreqWatts[f] - idle_watts);
      }
      floor.values.push_back(s.watts - busy_surplus);
    }
    layers.push_back(std::move(floor));
  }
  for (std::size_t f = freq_count; f-- > 0;) {
    bool used = false;
    std::vector<double> values;
    values.reserve(samples.size());
    for (const auto& s : samples) {
      double v = s.busy_by_freq[f] * (cluster::curie::kFreqWatts[f] - idle_watts);
      used |= v > 0;
      values.push_back(v);
    }
    if (!used) continue;
    util::ascii::Layer layer;
    layer.name = strings::format("%.1f GHz surplus", cluster::curie::kFreqGhz[f]);
    layer.fill = kFills[(freq_count - 1 - f) % sizeof(kFills)];
    layer.values = std::move(values);
    layers.push_back(std::move(layer));
  }

  util::ascii::ChartOptions options;
  options.width = width;
  options.height = height;
  options.y_max = result.max_cluster_watts;
  options.y_label = "cluster power (W, stacked by origin)";
  options.x_label = "time";
  return util::ascii::stacked_chart(times, layers, options);
}

inline void print_cap_annotation(const core::ScenarioResult& result) {
  if (result.cap_watts <= 0.0) {
    std::printf("no powercap window\n");
    return;
  }
  std::printf("powercap window: [%s, %s) at %s W (%.0f%% of max %s W)\n",
              strings::human_duration_ms(result.cap_start).c_str(),
              strings::human_duration_ms(result.cap_end).c_str(),
              strings::with_commas(static_cast<std::int64_t>(result.cap_watts)).c_str(),
              100.0 * result.cap_watts / result.max_cluster_watts,
              strings::with_commas(
                  static_cast<std::int64_t>(result.max_cluster_watts)).c_str());
  if (result.has_plan && !result.plan.selection.nodes.empty()) {
    std::printf(
        "offline plan: %s; switch-off reservation for %zu nodes "
        "(%d racks, %d chassis, %d singles), bonus-inclusive saving %s W\n",
        core::model::describe(result.plan.split).c_str(),
        result.plan.selection.nodes.size(), result.plan.selection.whole_racks,
        result.plan.selection.whole_chassis, result.plan.selection.singles,
        strings::with_commas(static_cast<std::int64_t>(
            result.plan.selection.saving_vs_busy_watts)).c_str());
  }
}

inline void print_run_summary(const std::string& label,
                              const core::ScenarioResult& result) {
  const auto& s = result.summary;
  std::printf(
      "%-16s work=%8.3g core-h (%5.1f%% of max, effective %5.1f%%)  "
      "energy=%7.4g MJ  launched=%5llu  cap-violation=%.0fs\n",
      label.c_str(), s.work_core_seconds / 3600.0, 100.0 * s.utilization,
      100.0 * s.effective_work_core_seconds / s.max_possible_work,
      s.energy_joules / 1e6, static_cast<unsigned long long>(s.launched_jobs),
      s.cap_violation_seconds);
}

}  // namespace ps::bench
