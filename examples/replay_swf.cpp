// Replay a real workload trace (Standard Workload Format) under a powercap.
//
//   ./build/replay_swf [trace.swf] [policy] [lambda] [max_jobs] [flags]
//
// lambda is a finite cap fraction > 0 (>= 1 = no cap) and max_jobs >= 0
// (0 = the whole trace); the flags are listed once, in the table in main().
// A malformed value prints the usage and exits 1.
//
// Works with the public Curie trace from the Parallel Workloads Archive
// (CEA-Curie-2011-2.1-cln.swf) or any other SWF file. Without arguments it
// replays the checked-in mini-slice data/curie_mini.swf (falling back to a
// self-generated demo trace when run outside the repository), so the
// example is runnable offline.
//
// Two ingestion modes, bit-identical by construction:
//   * default: materialize the trace (load + rebase), the classic path;
//   * --stream: never materialize — a workload::SwfStreamSource feeds
//     core::run_scenario in clock-keyed chunks (--chunk-seconds, default
//     3600), so resident memory is O(chunk) however long the trace is.
//     One read-only pre-scan of the file fixes the rebase offset and the
//     horizon exactly as the default mode's load + rebase does.
//     Generate a multi-week trace with ./build/make_curie_month and replay
//     it both ways to see identical summaries at very different peak RSS.
//
// Both modes go through core::run_scenario, the same entry point as every
// bench and test — which is what lets tests/workload_trace_replay_test.cc
// and tests/core_stream_parity_test.cc fence this path with golden
// fingerprints like the Fig-8 sweep.
#include <cstdio>
#include <fstream>
#include <memory>

#include "apps/cli_flags.h"
#include "core/experiment.h"
#include "metrics/summary.h"
#include "util/strings.h"
#include "workload/job_source.h"
#include "workload/swf.h"
#include "workload/trace_stats.h"

namespace {

/// The checked-in mini-trace, if findable from the usual run directories.
std::string find_mini_trace() {
  for (const char* candidate :
       {"data/curie_mini.swf", "../data/curie_mini.swf", "../../data/curie_mini.swf"}) {
    if (std::ifstream(candidate).good()) return candidate;
  }
  return "";
}

/// Writes a small synthetic trace so the example runs without external data.
std::string write_demo_trace() {
  std::string path = "demo_trace.swf";
  auto jobs = ps::workload::generate(ps::workload::Profile::MedianJob, 7);
  jobs.resize(1500);
  std::ofstream out(path);
  ps::workload::swf::write(out, jobs);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ps;
  bool stream = false;
  sim::Duration chunk = 0;  // 0 = run_scenario's default stream chunk
  std::int32_t racks = cluster::curie::kRacks;
  std::vector<std::string> positional;
  const cli::Flag flags[] = {
      {"--stream", "", "never materialize the trace", [&](auto, auto&) { stream = true; }},
      {"--chunk-seconds", "N", "stream chunk (3600)", [&](auto f, auto& v) {
         chunk = sim::seconds(cli::duration(f, v, sim::seconds(1), 1));
       }},
      {"--racks", "R", "Curie racks to simulate (56)", [&](auto f, auto& v) {
         racks = cli::integer<std::int32_t>(f, v, 1, cluster::curie::kRacks);
       }},
  };
  try {
    cli::parse(std::vector<std::string>(argv + 1, argv + argc), flags,
               [&](const std::string& word) { positional.push_back(word); });
    std::string path = positional.size() > 0 ? positional[0] : find_mini_trace();
    if (path.empty()) path = write_demo_trace();
    core::Policy policy =
        positional.size() > 1 ? cli::policy("policy", positional[1]) : core::Policy::Mix;
    double lambda =
        positional.size() > 2 ? cli::real("lambda", positional[2], cli::Sign::kPositive) : 0.5;
    std::int64_t max_jobs =
        positional.size() > 3 ? cli::integer("max_jobs", positional[3]) : 20000;

    workload::swf::ParseOptions options;
    options.skip_zero_runtime = true;
    options.max_jobs = max_jobs;

    core::ScenarioConfig config;
    config.racks = racks;
    config.powercap.policy = policy;
    // One-hour cap window centered in the replay: with cap_windows empty,
    // run_scenario plans the cap_lambda/cap_start/cap_duration window.
    config.cap_lambda = policy != core::Policy::None ? lambda : 1.0;

    if (stream) {
      // O(chunk) memory: the trace is never materialized. The rebase
      // offset and horizon come from the source's one-pass pre-scan.
      workload::SwfStreamSource::Options stream_options;
      stream_options.parse = options;
      config.job_source =
          std::make_shared<workload::SwfStreamSource>(path, stream_options);
      config.submit_chunk = chunk;
      std::printf("trace %s: streaming (chunk %s; full stats need "
                  "materializing — omitted)\n\n",
                  path.c_str(),
                  strings::human_duration_ms(
                      chunk > 0 ? chunk : core::kDefaultStreamChunk)
                      .c_str());
    } else {
      std::vector<workload::JobRequest> jobs = workload::swf::load_file(path, options);
      if (jobs.empty()) {
        std::fprintf(stderr, "trace %s holds no usable jobs\n", path.c_str());
        return 1;
      }
      // Rebase submit times to t=0 (SWF need not be sorted by submit time).
      sim::Time horizon = workload::swf::rebase_submit_times(jobs) + sim::hours(1);
      workload::StatsParams sp;
      sp.span = horizon;
      std::printf("trace %s:\n%s\n\n", path.c_str(),
                  workload::compute_stats(jobs, sp).describe().c_str());
      config.trace_jobs = std::move(jobs);
    }

    core::ScenarioResult result = core::run_scenario(config);
    if (stream && result.stats.submitted == 0) {
      // Match the materialized mode's loud failure on an empty/filtered-out
      // trace (which it detects before replaying; a stream only knows after).
      std::fprintf(stderr, "trace %s holds no usable jobs\n", path.c_str());
      return 1;
    }
    if (result.cap_watts > 0.0) {
      std::printf("powercap: %.0f%% of max for 1 h at %s (policy %s)\n",
                  lambda * 100.0, strings::human_duration_ms(result.cap_start).c_str(),
                  core::to_string(policy));
    }
    std::printf("\n%s\n", result.summary.describe().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay_swf: %s\n%s", e.what(),
                 cli::usage("replay_swf [trace.swf] [none|shut|dvfs|mix|idle|auto] "
                            "[lambda] [max_jobs] [flags]", flags).c_str());
    return 1;
  }
}
