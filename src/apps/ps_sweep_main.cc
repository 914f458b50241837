// ps-sweep — the distributed sweep binary (worker and driver in one
// executable, so "distributing" is just running more of the same binary).
//
//   ps-sweep worker --spool DIR        claim/run/publish loop over a spool
//       [--heartbeat-ms N]             lease renewal period
//       [--faults SPEC]                deterministic chaos (the sweep sites
//                                      of dist/worker.h); default:
//                                      $PS_SWEEP_FAULTS
//   ps-sweep drive --cells FILE        drive a serialized cell grid across
//       [--workers N] [--shards M]     N local workers; merged records to
//       [--spool DIR] [--golden FILE]  stdout, summary to stderr
//       [--manifest-out FILE]
//       [--max-attempts N]             attempts per shard before giving up
//       [--lease-ms N] [--heartbeat-ms N] [--poll-ms N]
//       [--quarantine]                 report exhausted shards, exit 3
//       [--resume]                     adopt valid results already in --spool
//
// See docs/ARCHITECTURE.md ("The dist layer", "Failure model") for the
// spool protocol and merge invariants; examples/distributed_sweep.cpp for
// the C++ API.
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
#include "util/strings.h"

namespace {

using namespace ps;
using cli::need_count;
using cli::need_value;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s worker --spool DIR [--heartbeat-ms N] [--faults SPEC]\n"
               "       %s drive --cells FILE [--workers N] [--shards M]\n"
               "          [--spool DIR] [--golden FILE] [--manifest-out FILE]\n"
               "          [--max-attempts N] [--lease-ms N] [--heartbeat-ms N]\n"
               "          [--poll-ms N] [--quarantine] [--resume] [--keep-spool]\n",
               argv0, argv0);
  return 2;
}

int worker_main(const std::vector<std::string>& args) {
  dist::WorkerOptions options;
  if (const char* env = std::getenv("PS_SWEEP_FAULTS")) {
    options.faults = dist::SweepFaultPlan::parse(env);
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--spool") options.spool_dir = need_value(args, i);
    else if (args[i] == "--heartbeat-ms") {
      options.heartbeat_interval_ms = need_count(args, i);
    } else if (args[i] == "--faults") {
      options.faults = dist::SweepFaultPlan::parse(need_value(args, i));
    } else throw std::runtime_error("unknown worker option " + args[i]);
  }
  if (options.spool_dir.empty()) throw std::runtime_error("worker wants --spool DIR");
  return dist::run_worker_spool(options);
}

int drive_main(const std::vector<std::string>& args) {
  dist::DriverOptions options;
  std::string cells_path;
  std::string manifest_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--cells") cells_path = need_value(args, i);
    else if (args[i] == "--workers") {
      options.workers = need_count<std::size_t>(args, i);
    } else if (args[i] == "--shards") {
      options.shards = need_count<std::size_t>(args, i);
    } else if (args[i] == "--spool") options.spool_dir = need_value(args, i);
    else if (args[i] == "--golden") {
      options.golden = dist::parse_manifest(util::read_file(need_value(args, i)));
    } else if (args[i] == "--manifest-out") manifest_out = need_value(args, i);
    else if (args[i] == "--keep-spool") options.keep_spool = true;
    else if (args[i] == "--max-attempts") {
      options.max_attempts = need_count<std::size_t>(args, i);
    } else if (args[i] == "--lease-ms") options.lease_timeout_ms = need_count(args, i);
    else if (args[i] == "--heartbeat-ms") {
      options.heartbeat_interval_ms = need_count(args, i);
    } else if (args[i] == "--poll-ms") options.poll_interval_ms = need_count(args, i);
    else if (args[i] == "--quarantine") options.quarantine = true;
    else if (args[i] == "--resume") options.resume = true;
    else if (args[i] == "--verbose") log::set_level(log::Level::Info);
    else if (args[i] == "--log-json") log::set_format(log::Format::Json);
    else throw std::runtime_error("unknown drive option " + args[i]);
  }
  if (cells_path.empty()) throw std::runtime_error("drive wants --cells FILE");

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
  if (argc < 2) return usage(argv[0]);
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    std::string mode = argv[1];
    if (mode == "worker") return worker_main(args);
    if (mode == "drive") return drive_main(args);
    return usage(argv[0]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ps-sweep: %s\n", error.what());
    return 1;
  }
}
