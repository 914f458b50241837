// ps-serve — the live-service daemon: an online RJMS front door over the
// deterministic replay engine. Clients (ps-load) publish job submissions
// into a spool; ps-serve ingests them, replays them through the powercap
// controller, and reports throughput, admission-latency percentiles and
// the replay fingerprint on exit. Its flags are listed once, in the table
// in main() (printed as the usage when --spool is missing).
//
// SIGTERM/SIGINT drain gracefully: ingestion stops, everything already
// admitted finishes simulating, and the final report still prints.
// SIGKILL does not: recovery is what --recover is for.
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "apps/cli_flags.h"
#include "cluster/curie.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/log.h"

namespace {

using namespace ps;

/// Each admit cycle adds quantum x weight (at most kMaxTenantWeight) to a
/// tenant's credit, which holds less than one document's cost before it:
/// half of int64_t each keeps the sum exact (serve/fair.cc).
constexpr std::uint64_t kMaxQuantumJobs =
    std::numeric_limits<std::int64_t>::max() / (2 * serve::kMaxTenantWeight);

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  serve::ServeOptions options;
  std::string trace_out;
  options.scenario.powercap.policy = core::Policy::Mix;
  options.scenario.cap_lambda = 0.5;
  core::ScenarioConfig& scenario = options.scenario;
  serve::TenantQuotaOptions& quotas = options.quotas;
  const cli::Flag flags[] = {
      {"--spool", "DIR", "spool root (required)", [&](auto, auto& v) { options.spool = v; }},
      {"--expect-clients", "N", "clients whose hellos start the clock (1)",
       [&](auto f, auto& v) { options.expect_clients = cli::integer<int>(f, v); }},
      {"--mode", "det|wall",
       "det: sim chases the ingest watermark\n(bit-identical to offline replay);\n"
       "wall: sim chases wall time x accel,\nlate jobs admitted late (default det)",
       [&](auto f, auto& v) {
         if (v != "det" && v != "wall") cli::refuse(f, "det or wall", v);
         options.mode = v == "det" ? serve::Mode::kDeterministic : serve::Mode::kWallClock;
       }},
      {"--accel", "X", "wall mode: sim ms per wall ms (1000)",
       [&](auto f, auto& v) { options.accel = cli::real(f, v); }},
      {"--racks", "N", "Curie racks to simulate (56)", [&](auto f, auto& v) {
         scenario.racks = cli::integer<std::int32_t>(f, v, 1, cluster::curie::kRacks);
       }},
      {"--policy", "P", "powercap policy: none|shut|dvfs|mix|\nidle|auto (mix)",
       [&](auto f, auto& v) { scenario.powercap.policy = cli::policy(f, v); }},
      {"--lambda", "L", "cap fraction of max power (0.5)",
       [&](auto f, auto& v) { scenario.cap_lambda = cli::real(f, v); }},
      {"--cap-start", "MS", "cap window start in ms; negative\n(the default) centres it",
       [&](auto f, auto& v) {
         scenario.cap_start = cli::integer<std::int64_t>(
             f, v, std::numeric_limits<std::int64_t>::min());
       }},
      {"--cap-minutes", "M", "cap window length (60)", [&](auto f, auto& v) {
         scenario.cap_duration = sim::minutes(cli::duration(f, v, sim::minutes(1), 1));
       }},
      {"--queue-docs", "N", "ingest queue capacity in documents (256)",
       [&](auto f, auto& v) { options.queue_capacity = cli::integer<std::size_t>(f, v); }},
      {"--inbox-high-water", "N", "inbox backlog that stops accepting (512)",
       [&](auto f, auto& v) { options.inbox_high_water = cli::integer<std::size_t>(f, v); }},
      {"--stats-ms", "N", "stderr progress period (2000; 0 = off)", [&](auto f, auto& v) {
         options.stats_interval_ms = cli::duration(f, v, cli::kNsPerMs);
       }},
      {"--hello-timeout-ms", "N", "give up waiting for hellos (60000;\n0 = never)",
       [&](auto f, auto& v) { options.hello_timeout_ms = cli::duration(f, v, cli::kNsPerMs); }},
      {"--recover", "", "resume a dirty spool from its journal\nand newest sealed checkpoint",
       [&](auto, auto&) { options.recover = true; }},
      {"--checkpoint-jobs", "N",
       "checkpoint every N admitted jobs (5000;\n0 disables the job cadence)",
        [&](auto f, auto& v) { options.checkpoint_jobs = cli::integer(f, v); }},
      {"--checkpoint-seconds", "N", "... or every N simulated seconds (86400)",
       [&](auto f, auto& v) {
         options.checkpoint_seconds = cli::duration(f, v, sim::seconds(1));
       }},
      {"--journal-fsync", "", "fsync each journaled document (survives\n"
       "kernel crashes, not just SIGKILL)", [&](auto, auto&) { options.journal_fsync = true; }},
      {"--faults", "SPEC", "daemon fault injection (the serve sites\nof serve/server.h, spec "
       "grammar of\nutil/fault.h); no environment variable\nis read",
       [&](auto, auto& v) { options.faults = serve::ServeFaultPlan::parse(v); }},
      {"--telemetry-seconds", "N", "publish a sealed obs-registry snapshot\ninto "
       "<spool>/telemetry/ every N wall\nseconds (read with ps-stat; 0 = off)",
       [&](auto f, auto& v) {
         options.telemetry_seconds = cli::duration(f, v, cli::kNsPerSecond);
       }},
      {"--quantum-jobs", "N", "DRR admission credit per tenant weight\nunit per cycle (256)",
       [&](auto f, auto& v) {
         quotas.quantum_jobs = cli::integer<std::uint64_t>(f, v, 0, kMaxQuantumJobs);
       }},
      {"--admit-window-ms", "N", "quota/slow-start window length (100)",
       [&](auto f, auto& v) { quotas.window_ms = cli::duration(f, v, cli::kNsPerMs); }},
      {"--tenant-window-jobs", "N", "jobs a tenant may admit per window\n(0 = unlimited)",
       [&](auto f, auto& v) { quotas.window_jobs = cli::integer<std::uint64_t>(f, v); }},
      {"--tenant-inflight-docs", "N", "claimed-but-unadmitted documents per\ntenant before "
       "ingest holds its claims\n(256; 0 = unlimited)",
       [&](auto f, auto& v) { options.tenant_inflight_docs = cli::integer<std::uint64_t>(f, v); }},
      {"--poison-threshold", "N", "poison documents before a tenant is\nabandoned and "
       "quarantined (8; 0 = never)",
       [&](auto f, auto& v) { options.poison_threshold = cli::integer<std::uint64_t>(f, v); }},
      {"--slow-start-docs", "N", "post-recovery claim allowance in the\nfirst window, "
       "doubling per window\n(32; 0 = off)",
       [&](auto f, auto& v) { options.slow_start_docs = cli::integer<std::uint64_t>(f, v); }},
      {"--trace-out", "FILE", "record trace spans and write Chrome\ntrace-event JSON on exit "
       "(load in\nchrome://tracing or Perfetto)", [&](auto, auto& v) { trace_out = v; }},
      {"--log-json", "", "JSON-lines log sink (one object per\nline, wall-clock stamped)",
       [&](auto, auto&) { log::set_format(log::Format::Json); }},
  };
  try {
    cli::parse(args, flags);
    if (options.spool.empty()) {
      std::fputs(cli::usage("ps-serve --spool DIR [flags]", flags).c_str(), stderr);
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
