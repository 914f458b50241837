// ps-sweep — the distributed sweep binary, worker and driver in one
// executable: `ps-sweep worker --spool DIR` runs the claim/run/publish loop
// over a spool; `ps-sweep drive --cells FILE` drives a serialized cell grid
// across local workers (merged records to stdout, summary to stderr). Each
// mode lists its flags once, in its table below, printed as its usage. See
// docs/ARCHITECTURE.md ("The dist layer", "Failure model") for the spool
// protocol and examples/distributed_sweep.cpp for the C++ API.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "apps/cli_flags.h"
#include "dist/driver.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "util/log.h"
#include "util/spool.h"

namespace {

using namespace ps;

/// The lease clamp doubles the heartbeat (dist/driver.cc), and the
/// driver compares both against steady_clock nanoseconds.
constexpr std::int64_t kHeartbeatUnit = 2 * cli::kNsPerMs;

int worker_main(const std::vector<std::string>& args) {
  dist::WorkerOptions options;
  if (const char* env = std::getenv("PS_SWEEP_FAULTS")) {
    options.faults = dist::SweepFaultPlan::parse(env);
  }
  const cli::Flag flags[] = {
      {"--spool", "DIR", "spool to work (required)", [&](auto, auto& v) { options.spool_dir = v; }},
      {"--heartbeat-ms", "N", "lease renewal period (500)", [&](auto f, auto& v) {
         options.heartbeat_interval_ms = cli::duration(f, v, kHeartbeatUnit);
       }},
      {"--faults", "SPEC", "deterministic chaos (the sweep sites of\ndist/worker.h); "
       "default: $PS_SWEEP_FAULTS",
       [&](auto, auto& v) { options.faults = dist::SweepFaultPlan::parse(v); }},
  };
  cli::parse(args, flags);
  if (options.spool_dir.empty()) {
    std::fputs(cli::usage("ps-sweep worker --spool DIR [flags]", flags).c_str(), stderr);
    return 2;
  }
  return dist::run_worker_spool(options);
}

int drive_main(const std::vector<std::string>& args) {
  dist::DriverOptions options;
  std::string cells_path;
  std::string manifest_out;
  const cli::Flag flags[] = {
      {"--cells", "FILE", "serialized cell grid (required)",
       [&](auto, auto& v) { cells_path = v; }},
      {"--workers", "N", "local worker processes (2)",
       [&](auto f, auto& v) { options.workers = cli::integer<std::size_t>(f, v); }},
      {"--shards", "M", "shards the grid splits into (0 = auto)",
       [&](auto f, auto& v) { options.shards = cli::integer<std::size_t>(f, v); }},
      {"--spool", "DIR", "spool directory (default: a private temp)",
       [&](auto, auto& v) { options.spool_dir = v; }},
      {"--golden", "FILE", "verify every cell against this manifest",
       [&](auto, auto& v) { options.golden = dist::parse_manifest(util::read_file(v)); }},
      {"--manifest-out", "FILE", "write the merged fingerprint manifest",
       [&](auto, auto& v) { manifest_out = v; }},
      {"--keep-spool", "", "keep the spool after the drive",
       [&](auto, auto&) { options.keep_spool = true; }},
      {"--max-attempts", "N", "attempts per shard before giving up (3)",
       [&](auto f, auto& v) { options.max_attempts = cli::integer<std::size_t>(f, v); }},
      {"--lease-ms", "N", "heartbeat age that marks a holder hung\n(10000)",
       [&](auto f, auto& v) { options.lease_timeout_ms = cli::duration(f, v, cli::kNsPerMs); }},
      {"--heartbeat-ms", "N", "workers' lease renewal period (500)", [&](auto f, auto& v) {
         options.heartbeat_interval_ms = cli::duration(f, v, kHeartbeatUnit);
       }},
      {"--poll-ms", "N", "spool poll period (25)",
       [&](auto f, auto& v) { options.poll_interval_ms = cli::duration(f, v, cli::kNsPerMs); }},
      {"--quarantine", "", "report exhausted shards, exit 3",
       [&](auto, auto&) { options.quarantine = true; }},
      {"--resume", "", "adopt valid results already in --spool",
       [&](auto, auto&) { options.resume = true; }},
      {"--verbose", "", "info-level log", [&](auto, auto&) { log::set_level(log::Level::Info); }},
      {"--log-json", "", "JSON-lines log sink",
       [&](auto, auto&) { log::set_format(log::Format::Json); }},
  };
  cli::parse(args, flags);
  if (cells_path.empty()) {
    std::fputs(cli::usage("ps-sweep drive --cells FILE [flags]", flags).c_str(), stderr);
    return 2;
  }

  std::vector<core::ScenarioConfig> cells =
      dist::parse_cell_grid(util::read_file(cells_path));
  dist::DriverReport report = dist::run_distributed(cells, options);

  std::vector<dist::CellRecord> records;
  records.reserve(report.results.size());
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    records.push_back({i, report.fingerprints[i], std::move(report.results[i])});
  }
  util::Writer w;
  w.block("sweep_results", [&] {
    w.list("cells", records, [&](const dist::CellRecord& record) {
      dist::cell_record(w, record);
    });
  });
  std::fputs(w.take().c_str(), stdout);

  if (!manifest_out.empty()) {
    util::write_file_atomic(manifest_out,
                            dist::serialize_manifest(report.fingerprints));
  }
  std::fprintf(stderr,
               "drove %zu cells over %zu shards; %zu workers spawned, "
               "%zu shards resubmitted, %zu leases reclaimed, "
               "%zu publishes fenced, %zu corrupt documents, "
               "%zu cells resumed%s\n",
               report.results.size(), report.shard_count, report.workers_spawned,
               report.resubmitted_shards, report.reclaimed_leases,
               report.fenced_publishes, report.corrupt_documents,
               report.resumed_cells,
               options.golden.empty() ? "" : "; golden manifest verified");
  if (!report.complete) {
    std::fprintf(stderr, "QUARANTINED %zu cells:", report.quarantined_cells.size());
    for (std::uint64_t index : report.quarantined_cells) {
      std::fprintf(stderr, " %llu", static_cast<unsigned long long>(index));
    }
    std::fprintf(stderr, "\n");
    return 3;  // partial result: merged output is valid, but holes exist
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  std::vector<std::string> args(argv + std::min(argc, 2), argv + argc);
  try {
    if (mode == "worker") return worker_main(args);
    if (mode == "drive") return drive_main(args);
    std::fputs("usage: ps-sweep worker|drive [flags] (a mode alone lists its flags)\n",
               stderr);
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ps-sweep: %s\n", error.what());
    return 1;
  }
}
