// ps-load — the load generator for ps-serve: replays an SWF trace into a
// serve spool, either as one client or as a multi-process fleet.
//
//   ps-load --spool DIR --swf FILE --client NAME
//       [--client-index I --client-count N]   stripe of a fleet replay
//       [--batch-jobs N] [--accel X]          X=0: firehose (default)
//       [--keep-zero-runtime] [--max-jobs N]
//       [--inbox-high-water N]
//       [--tenant NAME] [--weight N]          fair-admission identity
//                                             (default: tenant = client
//                                             name, weight 1)
//       [--faults SPEC]                       hostile-client chaos sites
//                                             (corrupt_submission,
//                                             flood_burst, stall_client,
//                                             dup_publish, lie_watermark;
//                                             spec grammar of util/fault.h)
//       [--flood-docs N]                      documents per flood burst (8)
//
//   ps-load --spool DIR --swf FILE --clients N [...same tuning...]
//       parent mode: spawns N child processes of this binary (client
//       names c0..c(N-1)), waits for all, exits non-zero if any failed.
//       --tenant/--weight/--faults forward to every child; with no
//       --tenant each child bills as its own tenant (c0..c(N-1)).
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cli_flags.h"
#include "serve/load_gen.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace {

using namespace ps;
using cli::need_count;
using cli::need_f64;
using cli::need_value;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --spool DIR --swf FILE --client NAME\n"
               "          [--client-index I --client-count N] [--batch-jobs N]\n"
               "          [--accel X] [--keep-zero-runtime] [--max-jobs N]\n"
               "          [--inbox-high-water N] [--tenant NAME] [--weight N]\n"
               "          [--faults SPEC] [--flood-docs N]\n"
               "       %s --spool DIR --swf FILE --clients N [...]\n",
               argv0, argv0);
  return 2;
}

int run_fleet(const char* self, const serve::LoadOptions& base, int clients,
              const std::vector<std::string>& tuning) {
  std::vector<util::Subprocess> fleet;
  fleet.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    std::vector<std::string> argv = {
        self,
        "--spool", base.spool,
        "--swf", base.swf,
        "--client", strings::format("c%d", i),
        "--client-index", strings::format("%d", i),
        "--client-count", strings::format("%d", clients),
    };
    argv.insert(argv.end(), tuning.begin(), tuning.end());
    fleet.push_back(util::Subprocess::spawn(argv));
  }
  int worst = 0;
  for (util::Subprocess& child : fleet) {
    worst = std::max(worst, child.wait());
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  serve::LoadOptions options;
  int clients = 0;
  // Tuning flags forwarded verbatim to fleet children.
  std::vector<std::string> tuning;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      bool tune = true;
      std::size_t flag = i;
      if (args[i] == "--spool") { options.spool = need_value(args, i); tune = false; }
      else if (args[i] == "--swf") { options.swf = need_value(args, i); tune = false; }
      else if (args[i] == "--client") { options.client = need_value(args, i); tune = false; }
      else if (args[i] == "--clients") { clients = need_count<int>(args, i); tune = false; }
      else if (args[i] == "--client-index") { options.client_index = need_count<int>(args, i); tune = false; }
      else if (args[i] == "--client-count") { options.client_count = need_count<int>(args, i); tune = false; }
      else if (args[i] == "--batch-jobs") options.batch_jobs = need_count<int>(args, i);
      else if (args[i] == "--accel") {
        options.accel = need_f64(args, i);
        if (options.accel < 0) throw std::runtime_error("--accel wants a number >= 0");
      } else if (args[i] == "--keep-zero-runtime") options.skip_zero_runtime = false;
      else if (args[i] == "--max-jobs") options.max_jobs = need_count(args, i);
      else if (args[i] == "--inbox-high-water") {
        options.inbox_high_water = need_count<std::size_t>(args, i);
      } else if (args[i] == "--gate-patience-ms") {
        options.gate_patience_ms = need_count(args, i);
      } else if (args[i] == "--tenant") {
        options.tenant = need_value(args, i);
      } else if (args[i] == "--weight") {
        options.weight = need_count<std::uint64_t>(args, i);
        if (options.weight == 0) throw std::runtime_error("--weight wants >= 1");
      } else if (args[i] == "--faults") {
        options.faults = serve::ClientFaultPlan::parse(need_value(args, i));
      } else if (args[i] == "--flood-docs") {
        options.flood_docs = need_count<int>(args, i);
      } else throw std::runtime_error("unknown option " + args[i]);
      if (tune) tuning.insert(tuning.end(), args.begin() + flag, args.begin() + i + 1);
    }
    if (options.spool.empty() || options.swf.empty()) return usage(argv[0]);
    if (clients > 0) {
      if (!options.client.empty()) {
        throw std::runtime_error("--clients and --client are exclusive");
      }
      return run_fleet(argv[0], options, clients, tuning);
    }
    if (options.client.empty()) return usage(argv[0]);
    serve::LoadReport report = serve::run_load_client(options);
    std::fputs(serve::format_load_report(report).c_str(), stdout);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ps-load: %s\n", error.what());
    return 1;
  }
}
