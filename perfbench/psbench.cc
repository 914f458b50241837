// psbench — the repository benchmark (see NOTES.md).
//
//   psbench --workload fig8_median|quarter_daily|serve_paced --seed N
//           --seconds S --trace 0|1 [--prepare] [--work DIR] [--serve-bin PATH]
//
// --prepare generates and caches the seed's inputs under DIR/inputs (the
// 112-day trace and its offline reference digest) and exits; run.py calls
// it in its own process first, so input generation never shows in the
// measured process's time, allocations or peak RSS.
//
// A measuring run repeats the workload until S seconds have passed (at
// least once), checks every output against its fingerprint, prints one
// `metric` line per value and, last, one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. For the
// replays, --seed N names three job sets (see set_seed); --seed 0 is the
// committed configuration.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "alloc_count.h"
#include "cluster/curie.h"
#include "core/experiment.h"
#include "core/fingerprint.h"
#include "obs/registry.h"
#include "probes.h"
#include "serve/journal.h"
#include "serve/load_gen.h"
#include "serve/protocol.h"
#include "util/spool.h"
#include "util/strings.h"
#include "workload/job_source.h"
#include "workload/swf.h"
#include "workload/synthetic.h"

namespace {

using namespace ps;
using perfbench::alloc_count;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Host-speed probe: the median of three sorts of one fixed pseudo-random
/// array, a kernel that shares no code with the project. The shared hosts
/// this runs on drift by ±20% within minutes; over 90 alternating runs the
/// same kernel tracked the drift a fig8 cell saw (correlation 0.79), and
/// scaling by it halved the cell's spread. CPU-bound times are therefore
/// reported scaled to a reference host, one on which the probe takes
/// kReferenceProbeS.
double host_probe_s() {
  static const std::vector<std::uint32_t> base = [] {
    std::vector<std::uint32_t> values(1 << 18);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t& v : values) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
    return values;
  }();
  static std::uint32_t sink = 0;
  double times[3];
  for (double& t : times) {
    const Clock::time_point start = Clock::now();
    std::vector<std::uint32_t> values = base;
    std::sort(values.begin(), values.end());
    sink ^= values[values.size() / 3];
    t = since(start);
  }
  std::sort(std::begin(times), std::end(times));
  return times[1];
}

constexpr double kReferenceProbeS = 0.0235;

/// Factor scaling a time taken between two probes to the reference host.
double to_reference(double probe_before_s, double probe_after_s) {
  return 2.0 * kReferenceProbeS / (probe_before_s + probe_after_s);
}

// --- workload definitions -----------------------------------------------------

// A replay's cost moves by ~15% from one job set to the next, which would
// swamp a run-to-run comparison across seeds. So a replay run covers
// kSeedsPerRun job sets: the fixed sets base and base + 1, whose digests
// are committed below and checked on every run, and the seed-derived set
// base + 2 + N. Metrics are per job set. serve_paced replays the trace of
// seed base + N. N = 0 is each workload's default seed.
constexpr std::uint64_t kSeedsPerRun = 3;
constexpr std::uint64_t kFixedSets = 2;
constexpr std::uint64_t kFig8BaseSeed = 20150525;   // bench::kSeed
constexpr std::uint64_t kTraceBaseSeed = 20111001;  // make_curie_month default
constexpr std::int32_t kTraceDays = 112;
constexpr std::int64_t kTraceJobs = 200000;

/// Workload seed of job set `j` of run `--seed n`.
std::uint64_t set_seed(std::uint64_t base, std::uint64_t n, std::uint64_t j) {
  return j < kFixedSets ? base + j : base + j + n;
}

/// Whether job set `j` of run `--seed n` has a committed digest.
bool committed_set(std::uint64_t n, std::uint64_t j) { return j < kFixedSets || n == 0; }

struct Fig8Cell {
  const char* label;
  double lambda;
  core::Policy policy;
};

// The Fig-8 MedianJob row at full Curie scale.
constexpr Fig8Cell kFig8Cells[] = {
    {"40%/MIX", 0.40, core::Policy::Mix},   {"40%/DVFS", 0.40, core::Policy::Dvfs},
    {"40%/SHUT", 0.40, core::Policy::Shut}, {"60%/MIX", 0.60, core::Policy::Mix},
    {"60%/DVFS", 0.60, core::Policy::Dvfs}, {"60%/SHUT", 0.60, core::Policy::Shut},
    {"80%/DVFS", 0.80, core::Policy::Dvfs}, {"80%/SHUT", 0.80, core::Policy::Shut},
    {"100%/NONE", 1.00, core::Policy::None},
};
constexpr std::size_t kFig8CellCount = std::size(kFig8Cells);

// run_scenario fingerprints of job sets base, base + 1 and base + 2,
// generated at the commit that introduced this benchmark. Row j is
// workload seed base + j.
constexpr std::uint64_t kFig8Digests[kSeedsPerRun][kFig8CellCount] = {
    {0xec4f81b53f43bd51ull, 0xdc499a5f8e476587ull, 0xb461c3a0f71ac09cull,
     0xd5cc9b777cc47511ull, 0x0cce8b8369eb1dc5ull, 0xcaed8000fdbed5bcull,
     0x9d933e0caa5d840cull, 0x5c4746052c0db206ull, 0x17eb20a6c13453e5ull},
    {0xe234c494a4b44c4eull, 0xc175c869ff99c8c9ull, 0x95aee91d156bb63cull,
     0x89d8d6c92156c2daull, 0x299e7f8ce751d9f8ull, 0x5ac2dc787a7187abull,
     0x1f59e003c2f5b591ull, 0xfc5a87c09060b781ull, 0xeab638ef705b4f59ull},
    {0x94f68f4bc6167160ull, 0xd2277ab898eb794dull, 0xf364e05927110c02ull,
     0x3fadadb2560fe31cull, 0xe20cf0387b399c5cull, 0x678854531af60468ull,
     0xf5765efe29b428c8ull, 0x77535c5763aa2404ull, 0x7c4b890c5f517aaaull},
};
constexpr std::uint64_t kQuarterDigests[kSeedsPerRun] = {
    0x88f32435ae1e1de9ull, 0xfc13ecb99dd2e5fcull, 0x1fa493330ec2a83dull};
constexpr std::uint64_t kServeDigest = 0xfbff01ca39e8ebbbull;

/// bench::scenario's wiring: full-scale Curie, the cap window centered in
/// the profile span.
core::ScenarioConfig fig8_config(const Fig8Cell& cell, std::uint64_t seed) {
  core::ScenarioConfig config;
  config.profile = workload::Profile::MedianJob;
  config.seed = seed;
  config.racks = cluster::curie::kRacks;
  config.powercap.policy = cell.policy;
  config.cap_lambda = cell.lambda;
  return config;
}

std::shared_ptr<workload::SwfStreamSource> open_trace(const std::string& path) {
  workload::SwfStreamSource::Options options;
  options.parse.skip_zero_runtime = true;
  return std::make_shared<workload::SwfStreamSource>(path, options);
}

/// The committed 4-week curie_month golden config, 112 days long.
core::ScenarioConfig quarter_daily_config(std::shared_ptr<workload::JobSource> source) {
  core::ScenarioConfig config;
  config.job_source = std::move(source);
  config.submit_chunk = sim::hours(6);
  config.racks = 2;
  config.powercap.policy = core::Policy::Mix;
  config.cap_lambda = 1.0;
  config.cap_windows =
      core::make_daily_cap_windows(0, kTraceDays, sim::hours(11), sim::hours(13), 0.5);
  return config;
}

/// What `ps-serve --racks 2 --policy mix --lambda 0.5` replays, offline.
core::ScenarioConfig serve_offline_config(std::shared_ptr<workload::JobSource> source) {
  core::ScenarioConfig config;
  config.job_source = std::move(source);
  config.racks = 2;
  config.powercap.policy = core::Policy::Mix;
  config.cap_lambda = 0.5;
  return config;
}

// --- inputs -------------------------------------------------------------------

struct Inputs {
  std::string trace;            ///< 112-day SWF
  std::uint64_t jobs = 0;       ///< jobs a replay submits (zero-runtime skipped)
  std::uint64_t serve_digest = 0;  ///< offline replay of the serve config
};

std::map<std::string, std::string> read_meta(const std::string& path) {
  std::map<std::string, std::string> fields;
  if (!util::path_exists(path)) return fields;
  for (const std::string& line : strings::split(util::read_file(path), '\n')) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos) fields[line.substr(0, space)] = line.substr(space + 1);
  }
  return fields;
}

/// Generates (once per seed) the trace `make_curie_month --jobs 200000
/// --days 112 --seed S` writes, its job count and the serve reference digest.
Inputs prepare_trace(const std::string& work, std::uint64_t seed, bool need_serve_digest) {
  const std::string dir = work + "/inputs";
  util::ensure_dir(dir);
  const std::string stem = strings::format(
      "%s/curie_month_d%d_j%lld_s%llu", dir.c_str(), kTraceDays,
      static_cast<long long>(kTraceJobs), static_cast<unsigned long long>(seed));
  Inputs inputs;
  inputs.trace = stem + ".swf";
  const std::string meta_path = stem + ".meta";
  std::map<std::string, std::string> meta = read_meta(meta_path);

  if (!meta.count("jobs") || !util::path_exists(inputs.trace)) {
    workload::ChunkedSyntheticSource source(
        workload::curie_month_params(kTraceDays, static_cast<std::size_t>(kTraceJobs)),
        seed);
    const std::vector<workload::JobRequest> trace = workload::materialize(source);
    const std::string tmp = inputs.trace + ".tmp";
    {
      std::ofstream out(tmp);
      workload::swf::write(out, trace);
      if (!out) throw std::runtime_error("cannot write " + tmp);
    }
    if (std::rename(tmp.c_str(), inputs.trace.c_str()) != 0) {
      throw std::runtime_error("cannot rename " + tmp);
    }
    workload::swf::ParseOptions parse;
    parse.skip_zero_runtime = true;
    meta = {{"jobs", std::to_string(workload::swf::load_file(inputs.trace, parse).size())}};
  }
  if (need_serve_digest && !meta.count("serve_digest")) {
    const core::ScenarioResult result =
        core::run_scenario(serve_offline_config(open_trace(inputs.trace)));
    meta["serve_digest"] = strings::format(
        "%016llx", static_cast<unsigned long long>(core::fingerprint(result)));
  }
  std::string text;
  for (const auto& [key, value] : meta) text += key + " " + value + "\n";
  util::write_file_atomic(meta_path, text, /*durable=*/false);

  inputs.jobs = std::stoull(meta.at("jobs"));
  if (meta.count("serve_digest")) {
    inputs.serve_digest = std::stoull(meta.at("serve_digest"), nullptr, 16);
  }
  return inputs;
}

// --- output -------------------------------------------------------------------

struct Output {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    if (!(value == value) || value > 1e300 || value < -1e300) value = 0.0;
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& what, std::uint64_t jobs) {
    std::fprintf(stderr, "psbench: %s: FAILED: %s\n", workload.c_str(), what.c_str());
    correct = false;
    failed += jobs;
  }

  void print() const {
    for (const auto& [name, value] : metrics) {
      std::printf("metric %-14s %-28s %.10g %s\n", workload.c_str(), name.c_str(),
                  value.first, value.second.c_str());
    }
    std::printf("fail_frac %s %.6f (%" PRIu64 " of %" PRIu64 " jobs)\n", workload.c_str(),
                ratio(static_cast<double>(failed), static_cast<double>(attempted)), failed,
                attempted);
    std::string json = strings::format(
        "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"metrics\": {",
        correct ? "true" : "false", std::max<std::uint64_t>(attempted, 1), failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      json += strings::format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              i ? ", " : "", metrics[i].first.c_str(),
                              metrics[i].second.first, metrics[i].second.second.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }
};

/// Per-layer metrics every traced run prints, in BENCHMARK.json's order;
/// layers a workload does not exercise read 0.
struct LayerReport {
  perfbench::LayerTotals replay;  ///< summed over the traced replays
  double reps = 0.0;              ///< job sets summed into `replay`
  double untraced_wall_s = 0.0;   ///< per job set, for the overhead ratio
  std::map<std::string, double> serve;

  void emit(Output& out) const {
    const perfbench::LayerTotals& l = replay;
    const double n = std::max(reps, 1.0);
    const double jobs = static_cast<double>(l.submitted);
    out.metric("workload.next_chunk_s", l.next_chunk_s / n, "s");
    out.metric("workload.hint_s", l.hint_s / n, "s");
    out.metric("workload.allocs", static_cast<double>(l.source_allocs) / n, "count");
    out.metric("sim.events_fired", static_cast<double>(l.events_fired) / n, "count");
    out.metric("sim.events_per_job", ratio(static_cast<double>(l.events_fired), jobs), "ratio");
    out.metric("sim.run_s", l.run_s / n, "s");
    out.metric("sim.self_s", (l.run_s - l.admit_s - l.record_s - l.next_chunk_in_run_s) / n,
               "s");
    out.metric("rjms.full_passes", static_cast<double>(l.full_passes) / n, "count");
    out.metric("rjms.passes_per_job", ratio(static_cast<double>(l.full_passes), jobs), "ratio");
    out.metric("rjms.quick_attempts", static_cast<double>(l.quick_attempts) / n, "count");
    out.metric("rjms.backfill_starts", static_cast<double>(l.backfill_starts) / n, "count");
    out.metric("rjms.selector_fast_fails", static_cast<double>(l.selector_fast_fails) / n,
               "count");
    out.metric("rjms.admission_fast_fails", static_cast<double>(l.admission_fast_fails) / n,
               "count");
    out.metric("rjms.pending_max", static_cast<double>(l.pending_max), "count");
    out.metric("rjms.pending_mean",
               ratio(l.pending_sum, static_cast<double>(l.pending_samples)), "count");
    out.metric("online.admit_calls", static_cast<double>(l.admit_calls) / n, "count");
    out.metric("online.admit_s", l.admit_s / n, "s");
    out.metric("online.admit_ok_ratio",
               ratio(static_cast<double>(l.admit_ok), static_cast<double>(l.admit_calls)),
               "ratio");
    out.metric("online.known_rejected_calls", static_cast<double>(l.known_rejected_calls) / n,
               "count");
    out.metric("online.cache_hit_ratio",
               ratio(static_cast<double>(l.cache_hits),
                     static_cast<double>(l.cache_hits + l.cache_misses)),
               "ratio");
    out.metric("online.cache_carries", static_cast<double>(l.cache_carries) / n, "count");
    out.metric("offline.plan_s", l.plan_s / n, "s");
    out.metric("offline.plans", static_cast<double>(l.plans) / n, "count");
    out.metric("offline.switched_off_nodes", static_cast<double>(l.switched_off_nodes) / n,
               "count");
    out.metric("pump.refills", static_cast<double>(l.refills) / n, "count");
    out.metric("metrics.record_s", l.record_s / n, "s");
    out.metric("metrics.record_allocs", static_cast<double>(l.record_allocs) / n, "count");
    out.metric("metrics.samples", static_cast<double>(l.samples) / n, "count");
    out.metric("metrics.sample_bytes", static_cast<double>(l.sample_bytes) / n, "bytes");
    out.metric("metrics.finalize_s", l.finalize_s / n, "s");
    for (const char* name :
         {"serve.docs", "serve.ingest.claims", "serve.ingest.journaled", "spool.claim_races",
          "serve.backpressure_stalls", "serve.peak_queue", "serve.queue_depth_max",
          "serve.checkpoints", "serve.journal_pruned", "load.stalls", "load.docs"}) {
      out.metric(name, serve.count(name) ? serve.at(name) : 0.0, "count");
    }
    for (const char* name : {"serve.serde_us_per_doc", "spool.cycle_us_per_doc"}) {
      out.metric(name, serve.count(name) ? serve.at(name) : 0.0, "us");
    }
    for (const char* name : {"serve.admit_p50_ms", "serve.admit_p99_ms", "load.gen_late_ms"}) {
      out.metric(name, serve.count(name) ? serve.at(name) : 0.0, "ms");
    }
    const double overhead =
        serve.count("obs.trace_overhead_frac")
            ? serve.at("obs.trace_overhead_frac")
            : ratio((l.wall_s - l.hint_s) / n, untraced_wall_s) - 1.0;
    out.metric("obs.trace_overhead_frac", overhead, "ratio");
  }
};

// --- the two replays ------------------------------------------------------------

/// One run_scenario call of a replay workload.
struct ReplayUnit {
  std::string label;
  std::size_t set = 0;          ///< the job set (workload seed) it belongs to
  std::uint64_t jobs = 0;       ///< submissions the replay must make
  bool has_digest = false;      ///< `committed` applies to this seed
  std::uint64_t committed = 0;  ///< committed digest (0 = bootstrap: print)
  std::function<core::ScenarioConfig()> config;        ///< the measured call's
  std::function<core::ScenarioConfig()> probe_config;  ///< the traced replay's
};

/// Runs `fn(result)` in a forked child and returns what it wrote, so that
/// the call's time, allocations and peak RSS (wait4's ru_maxrss, in MB) are
/// its own: no earlier replay's heap and no input preparation shows in
/// them. Throws when the child fails or dies.
template <typename Result, typename Fn>
Result in_child(Fn&& fn, double& peak_rss_mb) {
  static_assert(std::is_trivially_copyable_v<Result>);
  struct Envelope {
    Result result{};
    bool ok = false;
    char error[256] = {};
  };
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    Envelope envelope;
    try {
      fn(envelope.result);
      envelope.ok = true;
    } catch (const std::exception& e) {
      std::snprintf(envelope.error, sizeof envelope.error, "%s", e.what());
    }
    const char* bytes = reinterpret_cast<const char*>(&envelope);
    for (std::size_t sent = 0; sent < sizeof envelope;) {
      const ssize_t n = write(fds[1], bytes + sent, sizeof envelope - sent);
      if (n <= 0) _exit(1);
      sent += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  Envelope envelope;
  char* bytes = reinterpret_cast<char*>(&envelope);
  std::size_t got = 0;
  while (got < sizeof envelope) {
    const ssize_t n = read(fds[0], bytes + got, sizeof envelope - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  wait4(pid, &status, 0, &usage);
  peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  if (got != sizeof envelope) {
    throw std::runtime_error(strings::format("replay child died (status %d)", status));
  }
  if (!envelope.ok) throw std::runtime_error(envelope.error);
  return envelope.result;
}

/// One untraced run_scenario call, as measured inside its child.
struct Measured {
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t submitted = 0;
  std::uint64_t started = 0;
  std::uint64_t rejected = 0;
  std::uint64_t summary_submitted = 0;
};

Measured measure(const core::ScenarioConfig& config, double& peak_rss_mb) {
  return in_child<Measured>(
      [&config](Measured& m) {
        const std::uint64_t allocs_before = alloc_count();
        const Clock::time_point start = Clock::now();
        const core::ScenarioResult result = core::run_scenario(config);
        m.wall_s = since(start);
        m.allocs = alloc_count() - allocs_before;
        m.fingerprint = core::fingerprint(result);
        m.submitted = result.stats.submitted;
        m.started = result.stats.started;
        m.rejected = result.stats.rejected;
        m.summary_submitted = result.summary.submitted_jobs;
      },
      peak_rss_mb);
}

/// One traced replay, in its own child like the untraced ones.
struct Probed {
  std::uint64_t fingerprint = 0;
  perfbench::LayerTotals layers;
};

Probed probe(const core::ScenarioConfig& config) {
  double unused_peak = 0.0;
  return in_child<Probed>(
      [&config](Probed& p) {
        const perfbench::ProbedRun run = perfbench::run_probed(config);
        p.fingerprint = run.fingerprint;
        p.layers = run.layers;
      },
      unused_peak);
}

/// Replays every unit once per pass until `seconds` have passed, checking
/// each result, and reports the end-to-end metrics per job set (a pass
/// replays `sets` of them). Traced, each unit's untraced replay is followed
/// by its traced one, whose fingerprint must equal it; running the two back
/// to back keeps host drift out of obs.trace_overhead_frac.
void run_replays(const std::vector<ReplayUnit>& units, double sets,
                 const std::vector<double>& setup, double seconds, bool trace,
                 Output& out) {
  const Clock::time_point measure_start = Clock::now();
  std::vector<double> walls, raw_walls, throughputs, allocs_per_job, peaks;
  LayerReport layers;
  // Traced runs compare back-to-back replays and need no host scaling.
  double probe_s = trace ? kReferenceProbeS : host_probe_s();
  do {
    double wall = 0.0, raw_wall = 0.0, jobs = 0.0, allocs = 0.0;
    std::vector<double> set_peaks(static_cast<std::size_t>(sets), 0.0);
    for (std::size_t u = 0; u < units.size(); ++u) {
      const ReplayUnit& unit = units[u];
      out.attempted += unit.jobs;
      double peak_rss_mb = 0.0;
      Measured child;
      try {
        child = measure(unit.config(), peak_rss_mb);
      } catch (const std::exception& e) {
        out.fail(unit.label + ": " + e.what(), unit.jobs);
        continue;
      }
      const double probe_after_s = trace ? kReferenceProbeS : host_probe_s();
      wall += child.wall_s * to_reference(probe_s, probe_after_s);
      raw_wall += child.wall_s;
      probe_s = probe_after_s;
      allocs += static_cast<double>(child.allocs);
      jobs += static_cast<double>(unit.jobs);
      set_peaks[unit.set] = std::max(set_peaks[unit.set], peak_rss_mb);

      if (unit.has_digest && unit.committed == 0) {
        std::fprintf(stderr, "psbench: %s digest %016llx (none committed)\n",
                     unit.label.c_str(), static_cast<unsigned long long>(child.fingerprint));
      } else if (unit.has_digest && child.fingerprint != unit.committed) {
        out.fail(strings::format("%s digest %016llx != committed %016llx", unit.label.c_str(),
                                 static_cast<unsigned long long>(child.fingerprint),
                                 static_cast<unsigned long long>(unit.committed)),
                 unit.jobs);
      } else if (child.submitted != unit.jobs ||
                 child.started + child.rejected > child.submitted ||
                 child.summary_submitted != child.submitted) {
        out.fail(unit.label + ": job accounting", unit.jobs);
      }
      if (trace) {
        const Probed run = probe(unit.probe_config());
        if (run.fingerprint != child.fingerprint) {
          out.fail(strings::format("%s: traced replay digest %016llx != run_scenario %016llx",
                                   unit.label.c_str(),
                                   static_cast<unsigned long long>(run.fingerprint),
                                   static_cast<unsigned long long>(child.fingerprint)),
                   unit.jobs);
        }
        layers.replay.add(run.layers);
      }
    }
    walls.push_back(wall / sets);
    raw_walls.push_back(raw_wall / sets);
    throughputs.push_back(ratio(jobs, wall));
    allocs_per_job.push_back(ratio(allocs, jobs));
    peaks.insert(peaks.end(), set_peaks.begin(), set_peaks.end());
    layers.reps += sets;
  } while (since(measure_start) < seconds);

  if (trace) {
    layers.untraced_wall_s = std::accumulate(raw_walls.begin(), raw_walls.end(), 0.0) /
                             static_cast<double>(raw_walls.size());
    layers.emit(out);
    return;
  }
  std::printf("host %s raw_wall_s %.6f probe_s %.6f\n", out.workload.c_str(),
              median(raw_walls), probe_s);
  out.metric("wall_s", median(walls), "s");
  out.metric("setup_s", median(setup), "s");
  out.metric("jobs_per_s", median(throughputs), "1/s");
  out.metric("peak_rss_mb", median(peaks), "MB");
  out.metric("allocs_per_job", median(allocs_per_job), "count");
}

/// fig8_median: the 9 cells for each of the run's job sets, one thread.
void run_fig8(std::uint64_t run_seed, double seconds, bool trace, Output& out) {
  const workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  // Set-up: what run_scenario builds before its clock starts — the
  // full-scale machine and the seed's job list — timed outside it.
  std::vector<double> setup;
  std::vector<std::uint64_t> jobs(kSeedsPerRun);
  const double probe_before_s = host_probe_s();
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t j = 0; j < kSeedsPerRun; ++j) {
      const Clock::time_point start = Clock::now();
      cluster::Cluster machine = cluster::curie::make_scaled_cluster(cluster::curie::kRacks);
      jobs[j] = workload::generate(params, set_seed(kFig8BaseSeed, run_seed, j)).size();
      setup.push_back(since(start));
    }
  }
  const double scale = to_reference(probe_before_s, host_probe_s());
  for (double& t : setup) t *= scale;

  std::vector<ReplayUnit> units;
  for (std::uint64_t j = 0; j < kSeedsPerRun; ++j) {
    const std::uint64_t seed = set_seed(kFig8BaseSeed, run_seed, j);
    for (std::size_t c = 0; c < kFig8CellCount; ++c) {
      const Fig8Cell& cell = kFig8Cells[c];
      auto config = [cell, seed] { return fig8_config(cell, seed); };
      units.push_back({strings::format("seed %llu %s", static_cast<unsigned long long>(seed),
                                       cell.label),
                       j, jobs[j], committed_set(run_seed, j), kFig8Digests[j][c], config,
                       config});
    }
  }
  run_replays(units, static_cast<double>(kSeedsPerRun), setup, seconds, trace, out);
}

/// quarter_daily: the run's 112-day traces, streamed.
void run_quarter(const std::vector<Inputs>& traces, std::uint64_t run_seed, double seconds,
                 bool trace, Output& out) {
  // Set-up: opening the source and its last_submit_hint pre-scan (cached
  // across run_scenario's rewind); the traced replay gets an un-hinted
  // source so the pre-scan lands in workload.hint_s.
  auto open_hinted = [](const std::string& path) {
    std::shared_ptr<workload::SwfStreamSource> source = open_trace(path);
    source->last_submit_hint();
    return source;
  };
  std::vector<double> setup;
  const double probe_before_s = host_probe_s();
  for (int round = 0; round < 2; ++round) {
    for (const Inputs& input : traces) {
      const Clock::time_point start = Clock::now();
      open_hinted(input.trace);
      setup.push_back(since(start));
    }
  }
  const double scale = to_reference(probe_before_s, host_probe_s());
  for (double& t : setup) t *= scale;

  std::vector<ReplayUnit> units;
  for (std::uint64_t j = 0; j < traces.size(); ++j) {
    const std::string path = traces[j].trace;
    units.push_back({strings::format("trace seed %llu", static_cast<unsigned long long>(
                                                            set_seed(kTraceBaseSeed, run_seed, j))),
                     j, traces[j].jobs, committed_set(run_seed, j), kQuarterDigests[j],
                     [open_hinted, path] { return quarter_daily_config(open_hinted(path)); },
                     [path] { return quarter_daily_config(open_trace(path)); }});
  }
  run_replays(units, static_cast<double>(traces.size()), setup, seconds, trace, out);
}

// --- serve_paced --------------------------------------------------------------

constexpr int kClients = 2;
constexpr int kBatchJobs = 200;
constexpr double kAccel = 1e6;
constexpr double kDaemonTimeoutS = 60.0;

struct ServeRun {
  std::string error;  ///< empty on success
  std::map<std::string, std::string> report;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double daemon_allocs = 0.0;
  double gen_late_ms = 0.0;
  std::uint64_t load_stalls = 0;
  std::uint64_t load_docs = 0;
  std::map<std::string, double> telemetry;  ///< final counters, max queue depth

  double num(const std::string& key) const {
    return report.count(key) ? std::strtod(report.at(key).c_str(), nullptr) : 0.0;
  }
};

std::map<std::string, std::string> parse_report(const std::string& text) {
  std::map<std::string, std::string> fields;
  for (const std::string& line : strings::split(text, '\n')) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos) fields[line.substr(0, space)] = line.substr(space + 1);
  }
  return fields;
}

/// fork+exec with stdout/stderr redirected; the child dies with us.
pid_t spawn_daemon(const std::vector<std::string>& argv, const std::string& out_path,
                   const std::string& err_path) {
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (!std::freopen(out_path.c_str(), "w", stdout) ||
        !std::freopen(err_path.c_str(), "w", stderr)) {
      _exit(126);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  return pid;
}

/// One daemon run: fresh spool, 2 in-process paced clients, bounded wait.
ServeRun run_daemon(const std::string& work, const std::string& serve_bin,
                    const std::string& trace_path, bool telemetry, int index) {
  ServeRun run;
  const std::string dir =
      strings::format("%s/serve-%d-%d", work.c_str(), static_cast<int>(getpid()), index);
  const std::string spool = dir + "/spool";
  util::remove_tree(dir);
  util::ensure_dir(dir);

  std::vector<std::string> argv = {serve_bin, "--spool", spool, "--mode", "det",
                                   "--expect-clients", std::to_string(kClients),
                                   "--racks", "2", "--policy", "mix", "--lambda", "0.5",
                                   "--stats-ms", "0"};
  if (telemetry) {
    argv.push_back("--telemetry-seconds");
    argv.push_back("1");
  }
  const double probe_before_s = host_probe_s();
  const Clock::time_point spawned = Clock::now();
  const pid_t pid = spawn_daemon(argv, dir + "/serve.out", dir + "/serve.err");

  std::vector<serve::LoadReport> loads(kClients);
  std::vector<std::string> load_errors(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      serve::LoadOptions options;
      options.spool = spool;
      options.swf = trace_path;
      options.client = strings::format("c%d", i);
      options.client_index = i;
      options.client_count = kClients;
      options.batch_jobs = kBatchJobs;
      options.accel = kAccel;
      try {
        loads[i] = serve::run_load_client(options);
      } catch (const std::exception& e) {
        load_errors[i] = e.what();
      }
    });
  }

  // Set-up ends when the daemon has journaled every hello.
  int status = 0;
  rusage usage{};
  bool exited = false;
  const std::string journal = serve::journal_dir(spool);
  while (true) {
    bool all = true;
    for (int i = 0; i < kClients; ++i) {
      all = all && util::path_exists(journal + "/" +
                                     serve::hello_file_name(strings::format("c%d", i)));
    }
    if (all) break;
    if (wait4(pid, &status, WNOHANG, &usage) == pid) {
      exited = true;
      break;
    }
    if (since(spawned) > kDaemonTimeoutS) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  run.setup_s = since(spawned);

  while (!exited) {
    if (wait4(pid, &status, WNOHANG, &usage) == pid) {
      exited = true;
      break;
    }
    if (since(spawned) > kDaemonTimeoutS) {
      kill(pid, SIGKILL);
      wait4(pid, &status, 0, &usage);
      run.error = "daemon timed out";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& client : clients) client.join();
  // Set-up is CPU-bound (both clients parse the trace); the paced phase is
  // real time and stays unscaled.
  run.setup_s *= to_reference(probe_before_s, host_probe_s());
  for (const std::string& e : load_errors) {
    if (!e.empty() && run.error.empty()) run.error = "load client: " + e;
  }
  if (run.error.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    run.error = "daemon exited abnormally: " + util::read_file(dir + "/serve.err");
  }

  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.report = parse_report(util::read_file(dir + "/serve.out"));
  const std::map<std::string, std::string> err = parse_report(util::read_file(dir + "/serve.err"));
  if (err.count("perfbench_allocs")) run.daemon_allocs = std::strtod(err.at("perfbench_allocs").c_str(), nullptr);
  for (const serve::LoadReport& load : loads) {
    const double scheduled_ms = static_cast<double>(load.last_submit) / kAccel;
    run.gen_late_ms = std::max(run.gen_late_ms, static_cast<double>(load.wall_ms) - scheduled_ms);
    run.load_stalls += load.stalls;
    run.load_docs += load.docs;
  }

  if (telemetry && run.error.empty()) {
    const std::string tele_dir = spool + "/telemetry";
    double queue_max = 0.0;
    obs::Snapshot last;
    for (const std::string& name : util::list_files(tele_dir, ".tel")) {
      obs::Snapshot snap = obs::parse_snapshot(util::read_file(tele_dir + "/" + name));
      for (const auto& gauge : snap.gauges) {
        if (gauge.name == "serve.queue_depth") queue_max = std::max(queue_max, gauge.value);
      }
      if (snap.seq >= last.seq) last = std::move(snap);
    }
    run.telemetry["serve.queue_depth_max"] = queue_max;
    for (const auto& counter : last.counters) {
      run.telemetry[counter.name] = static_cast<double>(counter.value);
    }
  }
  util::remove_tree(dir);
  return run;
}

/// Serde and spool-lifecycle cost per document, over the workload's own
/// 200-job documents (client stripes, as the load clients cut them).
void time_documents(const std::string& work, const std::string& trace_path,
                    std::map<std::string, double>& layer) {
  workload::swf::ParseOptions parse;
  parse.skip_zero_runtime = true;
  std::vector<workload::JobRequest> jobs = workload::swf::load_file(trace_path, parse);
  workload::swf::rebase_submit_times(jobs);
  std::vector<serve::Submission> docs;
  for (int c = 0; c < kClients; ++c) {
    std::vector<workload::JobRequest> stripe;
    for (std::size_t i = c; i < jobs.size(); i += kClients) stripe.push_back(jobs[i]);
    for (std::size_t pos = 0; pos < stripe.size(); pos += kBatchJobs) {
      serve::Submission doc;
      doc.client = strings::format("c%d", c);
      doc.seq = docs.size();
      const std::size_t end = std::min(stripe.size(), pos + kBatchJobs);
      doc.jobs.assign(stripe.begin() + static_cast<std::ptrdiff_t>(pos),
                      stripe.begin() + static_cast<std::ptrdiff_t>(end));
      doc.watermark = doc.jobs.back().submit_time;
      docs.push_back(std::move(doc));
    }
  }

  std::vector<std::string> texts;
  texts.reserve(docs.size());
  Clock::time_point start = Clock::now();
  std::size_t parsed_jobs = 0;
  for (const serve::Submission& doc : docs) {
    texts.push_back(serve::serialize_submission(doc));
    parsed_jobs += serve::parse_submission(texts.back()).jobs.size();
  }
  layer["serve.serde_us_per_doc"] = since(start) * 1e6 / static_cast<double>(docs.size());
  if (parsed_jobs != jobs.size()) throw std::runtime_error("document round trip lost jobs");

  const std::string spool =
      strings::format("%s/spool-cycle-%d", work.c_str(), static_cast<int>(getpid()));
  util::remove_tree(spool);
  const std::string inbox = spool + "/inbox", accepted = spool + "/accepted",
                    journal = spool + "/journal";
  for (const std::string& d : {inbox, accepted, journal}) util::ensure_dir(d);
  start = Clock::now();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const std::string name = serve::submission_file_name(docs[i].client, docs[i].seq);
    util::write_file_atomic(inbox + "/" + name, texts[i], /*durable=*/false);
    util::claim_file(inbox + "/" + name, accepted + "/" + name, /*durable=*/false);
    util::read_file(accepted + "/" + name);
    util::retire_file(accepted + "/" + name, journal + "/" + name, /*durable=*/false);
    util::remove_file(journal + "/" + name);
  }
  layer["spool.cycle_us_per_doc"] = since(start) * 1e6 / static_cast<double>(texts.size());
  util::remove_tree(spool);
}

void run_serve(const std::string& work, const std::string& serve_bin, const Inputs& inputs,
               std::uint64_t expected, double seconds, bool trace, Output& out) {
  auto check = [&](const ServeRun& run) {
    out.attempted += inputs.jobs;
    const std::uint64_t admitted = static_cast<std::uint64_t>(run.num("admitted"));
    const std::uint64_t fp =
        run.report.count("fingerprint") ? std::stoull(run.report.at("fingerprint"), nullptr, 16)
                                        : 0;
    if (!run.error.empty()) {
      out.fail(run.error, inputs.jobs);
    } else if (fp != expected) {
      out.fail(strings::format("digest %016llx != expected %016llx",
                               static_cast<unsigned long long>(fp),
                               static_cast<unsigned long long>(expected)),
               inputs.jobs);
    } else if (static_cast<std::uint64_t>(run.num("jobs_declared")) != inputs.jobs ||
               admitted > inputs.jobs) {
      out.fail("job accounting", inputs.jobs);
    } else {
      out.failed += inputs.jobs - admitted;  // declared, never admitted
    }
  };

  const Clock::time_point measure_start = Clock::now();
  std::vector<ServeRun> runs;
  int index = 0;
  do {
    runs.push_back(run_daemon(work, serve_bin, inputs.trace, /*telemetry=*/false, index++));
    check(runs.back());
    if (trace) break;
  } while (since(measure_start) < seconds);

  auto med = [&](auto field) {
    std::vector<double> values;
    for (const ServeRun& run : runs) values.push_back(field(run));
    return median(values);
  };
  const double wall = med([](const ServeRun& r) { return r.num("wall_ms") / 1000.0; });
  if (!trace) {
    out.metric("wall_s", wall, "s");
    out.metric("setup_s", med([](const ServeRun& r) { return r.setup_s; }), "s");
    out.metric("jobs_per_s", med([](const ServeRun& r) { return r.num("jobs_per_sec"); }),
               "1/s");
    out.metric("peak_rss_mb", med([](const ServeRun& r) { return r.peak_rss_mb; }), "MB");
    out.metric("allocs_per_job",
               med([](const ServeRun& r) { return ratio(r.daemon_allocs, r.num("admitted")); }),
               "count");
    std::printf("serve_paced admit_p50_ms %.3f admit_p99_ms %.3f gen_late_ms %.3f\n",
                med([](const ServeRun& r) { return r.num("latency_p50_ms"); }),
                med([](const ServeRun& r) { return r.num("latency_p99_ms"); }),
                med([](const ServeRun& r) { return r.gen_late_ms; }));
    return;
  }

  // Traced: one daemon run with telemetry on, against the untraced one.
  const ServeRun run = run_daemon(work, serve_bin, inputs.trace, /*telemetry=*/true, index++);
  check(run);
  LayerReport layers;
  std::map<std::string, double>& s = layers.serve;
  s = run.telemetry;
  s["serve.docs"] = run.num("docs");
  s["serve.backpressure_stalls"] = run.num("backpressure_stalls");
  s["serve.peak_queue"] = run.num("peak_queue");
  s["serve.checkpoints"] = run.num("checkpoints");
  s["serve.journal_pruned"] = run.num("journal_pruned");
  s["serve.admit_p50_ms"] = run.num("latency_p50_ms");
  s["serve.admit_p99_ms"] = run.num("latency_p99_ms");
  s["load.stalls"] = static_cast<double>(run.load_stalls);
  s["load.docs"] = static_cast<double>(run.load_docs);
  s["load.gen_late_ms"] = run.gen_late_ms;
  s["obs.trace_overhead_frac"] = ratio(run.num("wall_ms") / 1000.0, wall) - 1.0;
  time_documents(work, inputs.trace, s);
  layers.emit(out);
}

// --- main ---------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: psbench --workload fig8_median|quarter_daily|serve_paced --seed N\n"
               "               --seconds S --trace 0|1 [--prepare] [--work DIR]\n"
               "               [--serve-bin PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string work = ".bench_build";
  std::string serve_bin;
  std::int64_t seed_arg = -1;
  double seconds = 10.0;
  bool trace = false;
  bool prepare = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(arg + " wants a value");
        return argv[++i];
      };
      if (arg == "--workload") workload_name = value();
      else if (arg == "--seed") seed_arg = std::stoll(value());
      else if (arg == "--seconds") seconds = std::stod(value());
      else if (arg == "--trace") trace = std::stoi(value()) != 0;
      else if (arg == "--work") work = value();
      else if (arg == "--serve-bin") serve_bin = value();
      else if (arg == "--prepare") prepare = true;
      else throw std::runtime_error("unknown argument " + arg);
    }
    if (seed_arg < 0 || workload_name.empty()) return usage();
    const std::uint64_t run_seed = static_cast<std::uint64_t>(seed_arg);

    Output out;
    out.workload = workload_name;
    if (workload_name == "fig8_median") {
      if (prepare) return 0;  // run_scenario generates the jobs from the seed
      run_fig8(run_seed, seconds, trace, out);
    } else if (workload_name == "quarter_daily") {
      std::vector<Inputs> traces;
      for (std::uint64_t j = 0; j < kSeedsPerRun; ++j) {
        traces.push_back(prepare_trace(work, set_seed(kTraceBaseSeed, run_seed, j), false));
      }
      if (prepare) return 0;
      run_quarter(traces, run_seed, seconds, trace, out);
    } else if (workload_name == "serve_paced") {
      const Inputs inputs =
          prepare_trace(work, kTraceBaseSeed + run_seed, /*serve_digest=*/run_seed != 0);
      if (prepare) return 0;
      if (serve_bin.empty()) throw std::runtime_error("serve_paced needs --serve-bin");
      run_serve(work, serve_bin, inputs, run_seed == 0 ? kServeDigest : inputs.serve_digest,
                seconds, trace, out);
    } else {
      return usage();
    }
    out.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psbench: %s\n", e.what());
    return 1;
  }
}
