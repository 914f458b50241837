// A production day on Curie under a powercap: replays the synthetic 24 h
// trace at full scale (5 040 nodes) with a configurable policy and cap, and
// emits the Fig 6-style time series as CSV for external plotting.
//
//   ./build/examples/curie_day [policy] [lambda] [csv-path]
//     policy: none | shut | dvfs | mix | idle | auto   (default mix)
//     lambda: cap fraction of max power, finite, > 0   (default 0.4;
//             >= 1 = no cap)
//     csv:    output path                              (default curie_day.csv)
#include <cstdio>
#include <fstream>

#include "apps/cli_flags.h"
#include "core/experiment.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace ps;
  core::Policy policy = core::Policy::Mix;
  double lambda = 0.40;
  std::string csv_path = "curie_day.csv";
  try {
    if (argc > 1) policy = cli::policy("policy", argv[1]);
    if (argc > 2) lambda = cli::real("lambda", argv[2], cli::Sign::kPositive);
    if (argc > 3) csv_path = argv[3];
  } catch (const std::exception& e) {
    std::fprintf(stderr, "curie_day: %s\nusage: curie_day [none|shut|dvfs|mix|idle|auto] "
                         "[lambda] [csv]\n", e.what());
    return 1;
  }

  core::ScenarioConfig config;
  config.profile = workload::Profile::Day24h;
  config.powercap.policy = policy;
  config.cap_lambda = lambda;

  std::printf("replaying 24 h of Curie (5 040 nodes) with policy %s, cap %.0f%%...\n",
              core::to_string(policy), lambda * 100.0);
  core::ScenarioResult result = core::run_scenario(config);

  std::printf("%s\n", result.summary.describe().c_str());
  if (result.has_plan) {
    std::printf("offline plan: %s, %zu nodes reserved for shutdown\n",
                core::model::describe(result.plan.split).c_str(),
                result.plan.selection.nodes.size());
  }

  std::ofstream out(csv_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  util::CsvWriter csv(out);
  std::vector<std::string> header{"time_s", "watts", "idle_nodes", "off_nodes",
                                  "transitioning_nodes"};
  static const char* kFreqNames[] = {"busy_1_2", "busy_1_4", "busy_1_6", "busy_1_8",
                                     "busy_2_0", "busy_2_2", "busy_2_4", "busy_2_7"};
  for (const char* name : kFreqNames) header.emplace_back(name);
  csv.header(header);
  for (const metrics::Sample& s : result.samples) {
    std::vector<std::string> row{util::CsvWriter::field(s.t / 1000),
                                 util::CsvWriter::field(s.watts),
                                 util::CsvWriter::field(std::int64_t{s.idle_nodes}),
                                 util::CsvWriter::field(std::int64_t{s.off_nodes}),
                                 util::CsvWriter::field(
                                     std::int64_t{s.transitioning_nodes})};
    for (std::int32_t count : s.busy_by_freq) {
      row.push_back(util::CsvWriter::field(std::int64_t{count}));
    }
    csv.row(row);
  }
  std::printf("wrote %zu samples to %s\n", result.samples.size(), csv_path.c_str());
  return 0;
}
