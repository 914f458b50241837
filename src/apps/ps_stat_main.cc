// ps-stat — reads the telemetry spool a ps-serve daemon publishes with
// --telemetry-seconds (sealed obs-registry snapshots, obs/registry.h wire
// format) and presents it: by default the newest snapshot of DIR, a
// telemetry directory or a spool root (its telemetry/ subdirectory is used
// when present). The flags are listed once, in the table in main()
// (printed as the usage). --follow survives the directory being rotated or
// removed mid-tail: it warns on stderr and reopens instead of exiting or
// going silent.
//
// Exit codes: 0 ok, 2 usage, 3 no telemetry documents found (one-shot).
// Torn or corrupt documents (a crashed writer) are reported on stderr and
// skipped — the seal makes them detectable instead of silently wrong.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "apps/cli_flags.h"
#include "obs/registry.h"
#include "util/spool.h"
#include "util/strings.h"

namespace {

using namespace ps;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

std::string wall_stamp(std::int64_t wall_ns) {
  std::time_t secs = static_cast<std::time_t>(wall_ns / 1'000'000'000);
  std::tm tm{};
  ::gmtime_r(&secs, &tm);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03lldZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec,
                static_cast<long long>(wall_ns % 1'000'000'000 / 1'000'000));
  return buf;
}

void pretty_print(const obs::Snapshot& snap) {
  std::printf("-- snapshot seq=%llu wall=%s",
              static_cast<unsigned long long>(snap.seq),
              wall_stamp(snap.wall_ns).c_str());
  if (snap.sim_time_ms >= 0) {
    std::printf(" sim=%s",
                strings::human_duration_ms(snap.sim_time_ms).c_str());
  }
  std::printf("\n");
  // The overload/hostile-client counters get a one-line digest above the
  // raw table: the question a tailing operator actually asks is "is
  // anything being quarantined or throttled right now", not five lookups.
  std::uint64_t overload[6] = {0, 0, 0, 0, 0, 0};
  static const char* kOverload[6] = {
      "serve.quarantine.docs",     "serve.quarantine.jobs",
      "serve.quarantine.poisoned_tenants", "serve.quota.window_deferrals",
      "serve.quota.inflight_holds", "serve.slow_start.holds"};
  bool has_overload = false;
  for (const obs::Snapshot::CounterValue& c : snap.counters) {
    for (int i = 0; i < 6; ++i) {
      if (c.name == kOverload[i]) {
        overload[i] = c.value;
        has_overload = true;
      }
    }
  }
  if (has_overload) {
    std::printf("  overload: quarantined=%llu docs / %llu jobs, "
                "poisoned_tenants=%llu, quota_deferrals=%llu, "
                "inflight_holds=%llu, slow_start_holds=%llu\n",
                static_cast<unsigned long long>(overload[0]),
                static_cast<unsigned long long>(overload[1]),
                static_cast<unsigned long long>(overload[2]),
                static_cast<unsigned long long>(overload[3]),
                static_cast<unsigned long long>(overload[4]),
                static_cast<unsigned long long>(overload[5]));
  }
  for (const obs::Snapshot::CounterValue& c : snap.counters) {
    std::printf("  %-40s %llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.value));
  }
  for (const obs::Snapshot::GaugeValue& g : snap.gauges) {
    std::printf("  %-40s %.3f\n", g.name.c_str(), g.value);
  }
  for (const obs::Snapshot::HistogramValue& h : snap.histograms) {
    std::printf("  %-40s count=%llu p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
                h.name.c_str(), static_cast<unsigned long long>(h.count),
                h.p50, h.p95, h.p99, h.max);
  }
  std::fflush(stdout);
}

void print(const obs::Snapshot& snap, bool prometheus) {
  if (prometheus) {
    std::fputs(obs::prometheus_exposition(snap).c_str(), stdout);
    std::fflush(stdout);
  } else {
    pretty_print(snap);
  }
}

/// Loads and prints every document in `names` (sorted); returns how many
/// printed cleanly.
std::size_t print_all(const std::string& dir,
                      const std::vector<std::string>& names, bool prometheus) {
  std::size_t printed = 0;
  for (const std::string& name : names) {
    try {
      print(obs::parse_snapshot(util::read_file(dir + "/" + name)), prometheus);
      ++printed;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "ps-stat: skipping %s: %s\n", name.c_str(),
                   error.what());
    }
  }
  return printed;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string dir;
  bool all = false;
  bool follow = false;
  bool prometheus = false;
  std::int64_t poll_ms = 500;
  const cli::Flag flags[] = {
      {"--all", "", "pretty-print every snapshot, oldest first", [&](auto, auto&) { all = true; }},
      {"--follow", "", "keep polling and print each new snapshot\nas it is published "
       "(SIGINT/SIGTERM exit\ncleanly)", [&](auto, auto&) { follow = true; }},
      {"--prometheus", "", "Prometheus text exposition instead of\nthe human table",
       [&](auto, auto&) { prometheus = true; }},
      {"--poll-ms", "N", "--follow poll interval (500)",
       [&](auto f, auto& v) { poll_ms = cli::integer<std::int64_t>(f, v, 1); }},
  };
  try {
    cli::parse(args, flags, [&](const std::string& word) {
      if (!dir.empty()) throw std::runtime_error("more than one directory given");
      dir = word;
    });
    if (dir.empty()) {
      std::fputs(cli::usage("ps-stat DIR [flags]", flags).c_str(), stderr);
      return 2;
    }
    // A spool root is accepted for convenience: use its telemetry/ child.
    if (util::path_exists(dir + "/telemetry")) dir += "/telemetry";

    struct sigaction action {};
    action.sa_handler = handle_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    if (!follow) {
      std::vector<std::string> names = util::list_files(dir, ".tel");
      if (names.empty()) {
        std::fprintf(stderr, "ps-stat: no telemetry documents in %s\n",
                     dir.c_str());
        return 3;
      }
      if (!all) names.erase(names.begin(), names.end() - 1);  // newest only
      return print_all(dir, names, prometheus) > 0 ? 0 : 3;
    }

    // Follow mode: print everything already there, then each new document
    // as its name appears (atomic publishes make a listed name complete).
    // The directory may be rotated or removed under us (spool cleanup, a
    // restarted daemon re-creating it with the sequence reset to zero):
    // both are survived loudly — warn once, forget the high-water name,
    // and keep tailing from whatever appears next.
    std::string last_seen;
    bool dir_present = util::path_exists(dir);
    while (!g_stop.load(std::memory_order_relaxed)) {
      const bool present = util::path_exists(dir);
      if (dir_present && !present) {
        std::fprintf(stderr,
                     "ps-stat: telemetry directory %s vanished; waiting for "
                     "it to reappear\n",
                     dir.c_str());
        last_seen.clear();
      } else if (!dir_present && present) {
        std::fprintf(stderr, "ps-stat: telemetry directory %s reappeared; "
                             "following from the start\n",
                     dir.c_str());
      }
      dir_present = present;
      std::vector<std::string> names;
      if (present) names = util::list_files(dir, ".tel");
      if (!names.empty() && !last_seen.empty() && names.back() < last_seen) {
        // Rotation without an observed removal window: every listed name
        // sorts below the newest one we printed, so the publisher's
        // sequence was reset. Reopen rather than skip forever.
        std::fprintf(stderr,
                     "ps-stat: telemetry sequence in %s reset (rotation?); "
                     "following from the start\n",
                     dir.c_str());
        last_seen.clear();
      }
      std::vector<std::string> fresh;
      for (const std::string& name : names) {
        if (name > last_seen) fresh.push_back(name);
      }
      if (!fresh.empty()) {
        print_all(dir, fresh, prometheus);
        last_seen = fresh.back();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ps-stat: %s\n", error.what());
    return 1;
  }
}
