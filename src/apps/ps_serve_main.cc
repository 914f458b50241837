// ps-serve — the live-service daemon: an online RJMS front door over the
// deterministic replay engine. Clients (ps-load) publish job submissions
// into a spool; ps-serve ingests them, replays them through the powercap
// controller, and reports throughput, admission-latency percentiles and
// the replay fingerprint on exit. The flags are listed in kUsage below.
//
// SIGTERM/SIGINT drain gracefully: ingestion stops, everything already
// admitted finishes simulating, and the final report still prints.
// SIGKILL does not: recovery is what --recover is for.
#include <csignal>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "apps/cli_flags.h"
#include "core/policy.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/log.h"
#include "util/strings.h"

namespace {

using namespace ps;
using cli::need_count;
using cli::need_f64;
using cli::need_i64;
using cli::need_value;

constexpr std::int64_t kMaxCapMinutes = std::numeric_limits<std::int64_t>::max() / 60'000;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

constexpr const char* kUsage = R"(usage: ps-serve --spool DIR --expect-clients N
    [--mode det|wall]           det: sim chases the ingest watermark
                                (bit-identical to offline replay);
                                wall: sim chases wall time x accel,
                                late jobs admitted late (default det)
    [--accel X]                 wall mode: sim ms per wall ms (1000)
    [--racks N] [--policy none|shut|dvfs|mix|idle|auto] [--lambda L]
    [--cap-start MS] [--cap-minutes M]
    [--queue-docs N] [--inbox-high-water N]
    [--stats-ms N] [--hello-timeout-ms N]
    [--recover]                 resume a dirty spool from its journal
                                and newest sealed checkpoint
    [--checkpoint-jobs N]       checkpoint every N admitted jobs (5000;
                                0 disables the job cadence)
    [--checkpoint-seconds N]    ... or every N simulated seconds (86400)
    [--journal-fsync]           fsync each journaled document (survives
                                kernel crashes, not just SIGKILL)
    [--faults SPEC]             daemon fault injection (the serve sites
                                of serve/server.h, spec grammar of
                                util/fault.h); no environment variable
                                is read
    [--telemetry-seconds N]     publish a sealed obs-registry snapshot
                                into <spool>/telemetry/ every N wall
                                seconds (read with ps-stat; 0 = off)
    [--quantum-jobs N]          DRR admission credit per tenant weight
                                unit per cycle (256)
    [--admit-window-ms N]       quota/slow-start window length (100)
    [--tenant-window-jobs N]    jobs a tenant may admit per window
                                (0 = unlimited)
    [--tenant-inflight-docs N]  claimed-but-unadmitted documents per
                                tenant before ingest holds its claims
                                (256; 0 = unlimited)
    [--poison-threshold N]      poison documents before a tenant is
                                abandoned and quarantined (8; 0 = never)
    [--slow-start-docs N]       post-recovery claim allowance in the
                                first window, doubling per window
                                (32; 0 = off)
    [--trace-out FILE]          record trace spans and write Chrome
                                trace-event JSON on exit (load in
                                chrome://tracing or Perfetto)
    [--log-json]                JSON-lines log sink (one object per
                                line, wall-clock stamped)
)";

core::Policy parse_policy(const std::string& name) {
  std::string lowered = strings::to_lower(name);
  if (lowered == "none") return core::Policy::None;
  if (lowered == "shut") return core::Policy::Shut;
  if (lowered == "dvfs") return core::Policy::Dvfs;
  if (lowered == "mix") return core::Policy::Mix;
  if (lowered == "idle") return core::Policy::Idle;
  if (lowered == "auto") return core::Policy::Auto;
  throw std::runtime_error("unknown policy " + name);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  serve::ServeOptions options;
  std::string trace_out;
  options.scenario.powercap.policy = core::Policy::Mix;
  options.scenario.cap_lambda = 0.5;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--spool") options.spool = need_value(args, i);
      else if (args[i] == "--expect-clients") {
        options.expect_clients = need_count<int>(args, i);
      } else if (args[i] == "--mode") {
        std::string mode = need_value(args, i);
        if (mode == "det") options.mode = serve::Mode::kDeterministic;
        else if (mode == "wall") options.mode = serve::Mode::kWallClock;
        else throw std::runtime_error("--mode wants det or wall");
      } else if (args[i] == "--accel") options.accel = need_f64(args, i);
      else if (args[i] == "--racks") {
        options.scenario.racks = need_count<std::int32_t>(args, i);
      } else if (args[i] == "--policy") {
        options.scenario.powercap.policy = parse_policy(need_value(args, i));
      } else if (args[i] == "--lambda") {
        options.scenario.cap_lambda = need_f64(args, i);
      } else if (args[i] == "--cap-start") {
        options.scenario.cap_start = need_i64(args, i);
      } else if (args[i] == "--cap-minutes") {
        // Bounded so sim::minutes cannot overflow.
        std::int64_t minutes = need_count(args, i);
        if (minutes < 1 || minutes > kMaxCapMinutes) {
          throw std::runtime_error(strings::format(
              "--cap-minutes wants 1..%lld", static_cast<long long>(kMaxCapMinutes)));
        }
        options.scenario.cap_duration = sim::minutes(minutes);
      } else if (args[i] == "--queue-docs") {
        options.queue_capacity = need_count<std::size_t>(args, i);
      } else if (args[i] == "--inbox-high-water") {
        options.inbox_high_water = need_count<std::size_t>(args, i);
      } else if (args[i] == "--stats-ms") {
        options.stats_interval_ms = need_count(args, i);
      } else if (args[i] == "--hello-timeout-ms") {
        options.hello_timeout_ms = need_count(args, i);
      } else if (args[i] == "--recover") {
        options.recover = true;
      } else if (args[i] == "--checkpoint-jobs") {
        options.checkpoint_jobs = need_count(args, i);
      } else if (args[i] == "--checkpoint-seconds") {
        options.checkpoint_seconds = need_count(args, i);
      } else if (args[i] == "--journal-fsync") {
        options.journal_fsync = true;
      } else if (args[i] == "--faults") {
        options.faults = serve::ServeFaultPlan::parse(need_value(args, i));
      } else if (args[i] == "--telemetry-seconds") {
        options.telemetry_seconds = need_count(args, i);
      } else if (args[i] == "--quantum-jobs") {
        options.quotas.quantum_jobs = need_count<std::uint64_t>(args, i);
      } else if (args[i] == "--admit-window-ms") {
        options.quotas.window_ms = need_count(args, i);
      } else if (args[i] == "--tenant-window-jobs") {
        options.quotas.window_jobs = need_count<std::uint64_t>(args, i);
      } else if (args[i] == "--tenant-inflight-docs") {
        options.tenant_inflight_docs = need_count<std::uint64_t>(args, i);
      } else if (args[i] == "--poison-threshold") {
        options.poison_threshold = need_count<std::uint64_t>(args, i);
      } else if (args[i] == "--slow-start-docs") {
        options.slow_start_docs = need_count<std::uint64_t>(args, i);
      } else if (args[i] == "--trace-out") {
        trace_out = need_value(args, i);
      } else if (args[i] == "--log-json") {
        log::set_format(log::Format::Json);
      } else {
        throw std::runtime_error("unknown option " + args[i]);
      }
    }
    if (options.spool.empty()) {
      std::fputs(kUsage, stderr);
      return 2;
    }

    struct sigaction action {};
    action.sa_handler = handle_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    options.stop = &g_stop;

    if (!trace_out.empty()) obs::start_tracing();
    serve::ServeReport report = serve::run_server(options);
    if (!trace_out.empty()) {
      obs::stop_tracing();
      obs::write_chrome_trace(trace_out);
    }
    std::fputs(serve::format_report(report).c_str(), stdout);
    return report.interrupted && report.admitted == 0 ? 4 : 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ps-serve: %s\n", error.what());
    return 1;
  }
}
