// ps-load — the load generator for ps-serve: replays an SWF trace into a
// serve spool, either as one client (--client NAME) or, with --clients N,
// as a parent that spawns N child processes of this binary (client names
// c0..c(N-1)), waits for all, and exits non-zero if any failed. Every flag
// but the identity and fleet ones forwards to each child; with no --tenant
// each child bills as its own tenant. The flags are listed once, in the
// table in main() (printed as the usage).
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cli_flags.h"
#include "serve/load_gen.h"
#include "serve/protocol.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace {

using namespace ps;

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
  // Tuning flags, with their values, forwarded verbatim to fleet children.
  std::vector<std::string> tuning;
  auto tune = [&](cli::Flag flag) {
    flag.apply = [&tuning, apply = std::move(flag.apply), has_value = !flag.value.empty()](
                     std::string_view f, const std::string& v) {
      apply(f, v);
      tuning.emplace_back(f);
      if (has_value) tuning.push_back(v);
    };
    return flag;
  };
  const cli::Flag flags[] = {
      {"--spool", "DIR", "serve spool (required)", [&](auto, auto& v) { options.spool = v; }},
      {"--swf", "FILE", "trace to replay (required)", [&](auto, auto& v) { options.swf = v; }},
      {"--client", "NAME", "replay as this one client", [&](auto, auto& v) { options.client = v; }},
      {"--clients", "N", "... or spawn N clients c0..c(N-1)",
       [&](auto f, auto& v) { clients = cli::integer<int>(f, v); }},
      {"--client-index", "I", "this client's stripe of a fleet replay (0)",
       [&](auto f, auto& v) { options.client_index = cli::integer<int>(f, v); }},
      {"--client-count", "N", "fleet size the trace is striped across (1)",
       [&](auto f, auto& v) { options.client_count = cli::integer<int>(f, v); }},
      tune({"--batch-jobs", "N", "jobs per submission document (64)",
            [&](auto f, auto& v) { options.batch_jobs = cli::integer<int>(f, v); }}),
      tune({"--accel", "X", "sim ms per wall ms; 0 = firehose (0)", [&](auto f, auto& v) {
              options.accel = cli::real(f, v, cli::Sign::kNonNegative);
            }}),
      tune({"--keep-zero-runtime", "", "replay zero-runtime jobs too",
            [&](auto, auto&) { options.skip_zero_runtime = false; }}),
      tune({"--max-jobs", "N", "read at most N trace jobs (0 = all)",
            [&](auto f, auto& v) { options.max_jobs = cli::integer(f, v); }}),
      tune({"--inbox-high-water", "N", "inbox backlog that gates publishing (512)",
            [&](auto f, auto& v) { options.inbox_high_water = cli::integer<std::size_t>(f, v); }}),
      tune({"--gate-patience-ms", "N", "longest gate wait before publishing\nanyway (10000)",
            [&](auto f, auto& v) {
              options.gate_patience_ms = cli::duration(f, v, cli::kNsPerMs);
            }}),
      tune({"--tenant", "NAME", "fair-admission tenant (the client name)",
            [&](auto, auto& v) { options.tenant = v; }}),
      tune({"--weight", "N", "tenant weight (1)", [&](auto f, auto& v) {
              options.weight = cli::integer<std::uint64_t>(f, v, 1, serve::kMaxTenantWeight);
            }}),
      tune({"--faults", "SPEC", "hostile-client chaos sites\n(corrupt_submission, flood_burst,\n"
            "stall_client, dup_publish,\nlie_watermark; spec grammar of\nutil/fault.h)",
            [&](auto, auto& v) { options.faults = serve::ClientFaultPlan::parse(v); }}),
      tune({"--flood-docs", "N", "documents per flood burst (8)",
            [&](auto f, auto& v) { options.flood_docs = cli::integer<int>(f, v); }}),
  };
  try {
    cli::parse(args, flags);
    if (options.spool.empty() || options.swf.empty() ||
        (clients == 0 && options.client.empty())) {
      std::fputs(cli::usage("ps-load --spool DIR --swf FILE --client NAME|--clients N "
                            "[flags]", flags).c_str(), stderr);
      return 2;
    }
    if (clients > 0) {
      if (!options.client.empty()) {
        throw std::runtime_error("--clients and --client are exclusive");
      }
      return run_fleet(argv[0], options, clients, tuning);
    }
    serve::LoadReport report = serve::run_load_client(options);
    std::fputs(serve::format_load_report(report).c_str(), stdout);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ps-load: %s\n", error.what());
    return 1;
  }
}
