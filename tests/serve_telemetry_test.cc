// Live-telemetry fence: a ps-serve run with --telemetry-seconds and
// --trace-out must (a) still replay to the committed offline golden
// fingerprint — observation cannot move the schedule — and (b) publish
// well-sealed, monotonic telemetry documents that ps-stat can read back.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "util/spool.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace ps::serve {
namespace {

constexpr const char* kGoldenFingerprint = "7cb9a43f79a4103c";
constexpr std::uint64_t kMiniTraceJobs = 400;

std::string mini_trace() {
  return std::string(PS_SOURCE_DIR) + "/data/curie_mini.swf";
}

std::map<std::string, std::string> parse_report(const std::string& text) {
  std::map<std::string, std::string> fields;
  for (const std::string& line : strings::split(text, '\n')) {
    std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    fields[line.substr(0, space)] = line.substr(space + 1);
  }
  return fields;
}

std::uint64_t counter_value(const obs::Snapshot& snap,
                            const std::string& name) {
  for (const obs::Snapshot::CounterValue& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "snapshot has no counter " << name;
  return 0;
}

TEST(ServeTelemetry, GoldenUnmovedAndDocumentsMonotonic) {
  std::string dir = util::make_temp_dir("serve_tele");
  std::string spool = dir + "/spool";
  std::string trace_path = dir + "/trace.json";

  util::Subprocess server = util::Subprocess::spawn(
      {PS_SERVE_BIN, "--spool", spool, "--expect-clients", "1", "--racks",
       "2", "--policy", "mix", "--lambda", "0.5", "--stats-ms", "0",
       "--telemetry-seconds", "1", "--trace-out", trace_path},
      dir + "/serve.out", dir + "/serve.err");
  util::Subprocess load = util::Subprocess::spawn(
      {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--client",
       "solo", "--batch-jobs", "64"},
      dir + "/load.out", dir + "/load.err");

  EXPECT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");
  int server_exit = -1;
  ASSERT_TRUE(server.wait_for(60'000, &server_exit)) << "ps-serve hung";
  EXPECT_EQ(server_exit, 0) << util::read_file(dir + "/serve.err");

  // (a) the replay fingerprint is the committed offline golden — telemetry
  // and tracing are pure observation.
  std::map<std::string, std::string> report =
      parse_report(util::read_file(dir + "/serve.out"));
  ASSERT_TRUE(report.count("fingerprint"));
  EXPECT_EQ(report.at("fingerprint"), kGoldenFingerprint);

  // (b) sealed telemetry documents, monotonic stamps, counters that never
  // decrease. At least the final drain-time document must exist.
  std::vector<std::string> names =
      util::list_files(spool + "/telemetry", ".tel");
  ASSERT_FALSE(names.empty());
  std::uint64_t last_seq = 0;
  std::int64_t last_mono = 0;
  std::map<std::string, std::uint64_t> last_counters;
  obs::Snapshot final_snap;
  for (const std::string& name : names) {
    obs::Snapshot snap =
        obs::parse_snapshot(util::read_file(spool + "/telemetry/" + name));
    EXPECT_GT(snap.seq, last_seq) << name;
    EXPECT_GE(snap.mono_ns, last_mono) << name;
    EXPECT_GT(snap.wall_ns, 0) << name;
    for (const obs::Snapshot::CounterValue& c : snap.counters) {
      auto it = last_counters.find(c.name);
      if (it != last_counters.end()) {
        EXPECT_GE(c.value, it->second) << c.name << " decreased in " << name;
      }
      last_counters[c.name] = c.value;
    }
    last_seq = snap.seq;
    last_mono = snap.mono_ns;
    final_snap = snap;
  }
  // The final document carries the whole run: every mini-trace job
  // admitted, every ingest claim journaled, and the run-end replay totals.
  EXPECT_EQ(counter_value(final_snap, "serve.jobs_admitted"), kMiniTraceJobs);
  EXPECT_GT(counter_value(final_snap, "serve.docs"), 0u);
  EXPECT_EQ(counter_value(final_snap, "serve.ingest.claims"),
            counter_value(final_snap, "serve.ingest.journaled"));
  EXPECT_GE(counter_value(final_snap, "core.jobs_submitted"), kMiniTraceJobs);
  EXPECT_GT(counter_value(final_snap, "spool.claims"), 0u);

  // (c) the Chrome trace is present and shaped right.
  std::string trace = util::read_file(trace_path);
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("serve.advance"), std::string::npos);
  EXPECT_NE(trace.find("serve.ingest.doc"), std::string::npos);
  EXPECT_NE(trace.find("serve.drain"), std::string::npos);

  // (d) ps-stat reads it back — human table from the spool root, then the
  // Prometheus exposition of every document.
  util::Subprocess stat = util::Subprocess::spawn(
      {PS_STAT_BIN, spool}, dir + "/stat.out", dir + "/stat.err");
  EXPECT_EQ(stat.wait(), 0) << util::read_file(dir + "/stat.err");
  std::string stat_out = util::read_file(dir + "/stat.out");
  EXPECT_NE(stat_out.find("serve.jobs_admitted"), std::string::npos)
      << stat_out;
  EXPECT_NE(stat_out.find("-- snapshot seq="), std::string::npos);

  util::Subprocess prom = util::Subprocess::spawn(
      {PS_STAT_BIN, spool + "/telemetry", "--prometheus", "--all"},
      dir + "/prom.out", dir + "/prom.err");
  EXPECT_EQ(prom.wait(), 0) << util::read_file(dir + "/prom.err");
  std::string prom_out = util::read_file(dir + "/prom.out");
  EXPECT_NE(prom_out.find("ps_serve_jobs_admitted"), std::string::npos)
      << prom_out;
  util::remove_tree(dir);
}

std::string snapshot_doc(std::uint64_t seq, std::uint64_t count) {
  obs::Snapshot snap;
  snap.seq = seq;
  snap.wall_ns = 1'000'000'000 + static_cast<std::int64_t>(seq);
  snap.mono_ns = static_cast<std::int64_t>(seq);
  obs::Snapshot::CounterValue counter;
  counter.name = "demo.count";
  counter.value = count;
  snap.counters.push_back(counter);
  return obs::serialize_snapshot(snap);
}

std::size_t count_snapshots(const std::string& text) {
  std::size_t n = 0;
  for (std::size_t at = text.find("-- snapshot seq=");
       at != std::string::npos; at = text.find("-- snapshot seq=", at + 1)) {
    ++n;
  }
  return n;
}

TEST(ServeTelemetry, FollowSurvivesDirectoryRotation) {
  // A tailing ps-stat must survive the telemetry directory being removed
  // and re-created with its sequence reset (spool cleanup, a restarted
  // daemon): warn on stderr and keep printing, instead of exiting or —
  // worse — going silent forever because every new name sorts below the
  // old high-water mark.
  std::string dir = util::make_temp_dir("stat_follow");
  std::string tele = dir + "/telemetry";
  util::ensure_dir(tele);
  util::write_file_atomic(tele + "/tele-00000001.tel", snapshot_doc(1, 10),
                          /*durable=*/false);

  util::Subprocess stat = util::Subprocess::spawn(
      {PS_STAT_BIN, tele, "--follow", "--poll-ms", "25"}, dir + "/stat.out",
      dir + "/stat.err");

  auto wait_for_snapshots = [&](std::size_t want) {
    for (int i = 0; i < 200; ++i) {
      // The redirect file is created by the child after fork — it may not
      // exist for the first few polls.
      if (util::path_exists(dir + "/stat.out") &&
          count_snapshots(util::read_file(dir + "/stat.out")) >= want) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  };
  EXPECT_TRUE(wait_for_snapshots(1)) << "follow never printed the backlog";
  util::write_file_atomic(tele + "/tele-00000002.tel", snapshot_doc(2, 20),
                          /*durable=*/false);
  EXPECT_TRUE(wait_for_snapshots(2)) << "follow missed a fresh document";

  // Rotation: the whole directory vanishes, then reappears with the
  // sequence reset to 1. The old follow logic would skip it forever.
  util::remove_tree(tele);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  util::ensure_dir(tele);
  util::write_file_atomic(tele + "/tele-00000001.tel", snapshot_doc(1, 30),
                          /*durable=*/false);
  EXPECT_TRUE(wait_for_snapshots(3))
      << "follow went silent across the rotation";

  ASSERT_EQ(::kill(stat.pid(), SIGTERM), 0);
  int exit_code = -1;
  ASSERT_TRUE(stat.wait_for(10'000, &exit_code)) << "ps-stat ignored SIGTERM";
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(util::read_file(dir + "/stat.err").find("vanished"),
            std::string::npos)
      << "rotation was survived silently — it must be loud";
  util::remove_tree(dir);
}

TEST(ServeTelemetry, StatReportsEmptyDirectory) {
  std::string dir = util::make_temp_dir("serve_tele_empty");
  util::Subprocess stat = util::Subprocess::spawn(
      {PS_STAT_BIN, dir}, dir + "/stat.out", dir + "/stat.err");
  EXPECT_EQ(stat.wait(), 3);  // "no telemetry documents" exit code
  util::remove_tree(dir);
}

TEST(ServeTelemetry, StatRejectsANonPositivePollInterval) {
  // A usage error exits 1 before any directory is read; an accepted
  // interval would reach the empty directory and exit 3.
  std::string dir = util::make_temp_dir("serve_tele_poll");
  for (const char* poll_ms : {"-1", "0", "soon"}) {
    util::Subprocess stat = util::Subprocess::spawn(
        {PS_STAT_BIN, dir, "--poll-ms", poll_ms}, dir + "/stat.out",
        dir + "/stat.err");
    EXPECT_EQ(stat.wait(), 1) << poll_ms;
  }
  util::remove_tree(dir);
}

}  // namespace
}  // namespace ps::serve
