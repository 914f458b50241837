// Deterministically synthesizes the multi-week "curie_month" SWF trace —
// the scale fixture of the streaming replay pipeline (50k jobs over 4 weeks
// by default; CI regenerates it on demand instead of checking megabytes of
// trace into the repository).
//
//   ./build/make_curie_month [out.swf] [flags]
//
// The flags are listed once, in the table in main() (printed as the usage
// with any error).
//
// The job stream comes from workload::ChunkedSyntheticSource with
// workload::curie_month_params, so the output is a pure function of
// (jobs, days, seed): the golden fingerprint in
// tests/workload_curie_month_test.cc pins the replay of the default file.
// A streamed replay of the file (SwfStreamSource) finds its rebase offset
// and horizon in one exact pre-scan, so it equals the materialized one.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/cli_flags.h"
#include "util/strings.h"
#include "workload/job_source.h"
#include "workload/swf.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace ps;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string out_path = "curie_month.swf";
  std::int64_t jobs = 50000;
  std::int32_t days = 28;
  std::uint64_t seed = 20111001;
  const cli::Flag flags[] = {
      {"--jobs", "N", "jobs in the trace (50000)",
       [&](auto f, auto& v) { jobs = cli::integer<std::int64_t>(f, v, 1); }},
      {"--days", "D", "days the trace spans (28)",
       [&](auto f, auto& v) { days = cli::integer<std::int32_t>(f, v, 1); }},
      {"--seed", "S", "generator seed (20111001)",
       [&](auto f, auto& v) { seed = cli::integer<std::uint64_t>(f, v); }},
  };
  try {
    cli::parse(args, flags, [&](const std::string& word) { out_path = word; });
    workload::GeneratorParams params =
        workload::curie_month_params(days, static_cast<std::size_t>(jobs));
    workload::ChunkedSyntheticSource source(params, seed);
    std::vector<workload::JobRequest> trace = workload::materialize(source);

    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot open " + out_path + " for writing");
    workload::swf::write(out, trace);
    out.close();

    sim::Time last = trace.empty() ? 0 : trace.back().submit_time;
    std::printf("%s: %zu jobs over %s (days %d, seed %llu)\n", out_path.c_str(),
                trace.size(), strings::human_duration_ms(last).c_str(), days,
                static_cast<unsigned long long>(seed));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "make_curie_month: %s\n%s", e.what(),
                 cli::usage("make_curie_month [out.swf] [flags]", flags).c_str());
    return 1;
  }
}
