// Live-service failure-mode fences: backpressure must throttle without
// dropping or deadlocking (and without perturbing the deterministic
// replay), SIGTERM must drain gracefully and still emit the final report,
// a missing client must fail loudly rather than hang the daemon, and a
// negative count flag must be refused at startup.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/spool.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace ps::serve {
namespace {

constexpr const char* kGoldenFingerprint = "7cb9a43f79a4103c";

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

std::uint64_t field_u64(const std::map<std::string, std::string>& report,
                        const std::string& key) {
  auto it = report.find(key);
  if (it == report.end()) return 0;
  auto value = strings::parse_i64(it->second);
  return value ? static_cast<std::uint64_t>(*value) : 0;
}

TEST(ServeBackpressure, ThrottlesWithoutDroppingOrPerturbingTheReplay) {
  // A one-document queue, a tiny inbox high-water and a serve loop slowed
  // by the stall_drain fault site against a firehose publisher: the queue
  // WILL fill and the inbox WILL back up. The protocol must respond with
  // retriable back-offs on both sides — and the replay must still be
  // byte-identical to the offline golden, because backpressure only ever
  // delays admission, it never reorders or drops.
  std::string dir = util::make_temp_dir("serve_bp");
  std::string spool = dir + "/spool";

  util::Subprocess server = util::Subprocess::spawn(
      {PS_SERVE_BIN, "--spool", spool, "--expect-clients", "1", "--racks",
       "2", "--policy", "mix", "--lambda", "0.5", "--stats-ms", "0",
       "--queue-docs", "1", "--inbox-high-water", "2",
       "--faults", "seed=1,rate=1,max_attempt=0,sites=stall_drain"},
      dir + "/serve.out", dir + "/serve.err");
  util::Subprocess load = util::Subprocess::spawn(
      {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--client",
       "hose", "--batch-jobs", "8", "--inbox-high-water", "2"},
      dir + "/load.out", dir + "/load.err");

  EXPECT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");
  int server_exit = -1;
  ASSERT_TRUE(server.wait_for(120'000, &server_exit))
      << "backpressure deadlocked the daemon";
  EXPECT_EQ(server_exit, 0) << util::read_file(dir + "/serve.err");

  auto report = parse_report(util::read_file(dir + "/serve.out"));
  auto load_report = parse_report(util::read_file(dir + "/load.out"));
  EXPECT_EQ(report.at("admitted"), "400");  // nothing dropped
  EXPECT_EQ(report.at("fingerprint"), kGoldenFingerprint)
      << "backpressure perturbed the deterministic replay";
  // Both throttles must actually have engaged: the ingest thread stalled
  // on the full queue, and the client backed off on the congested inbox.
  EXPECT_GT(field_u64(report, "backpressure_stalls"), 0u);
  EXPECT_GT(field_u64(load_report, "stalls"), 0u);
  util::remove_tree(dir);
}

TEST(ServeBackpressure, SigtermDrainsGracefullyAndEmitsFinalReport) {
  // SIGTERM mid-load: ingestion stops, everything already admitted
  // finishes simulating, and the final report (stats included) still
  // reaches stdout — a drain, not an abort.
  std::string dir = util::make_temp_dir("serve_term");
  std::string spool = dir + "/spool";

  util::Subprocess server = util::Subprocess::spawn(
      {PS_SERVE_BIN, "--spool", spool, "--expect-clients", "1", "--racks",
       "2", "--mode", "wall", "--accel", "2000", "--stats-ms", "0"},
      dir + "/serve.out", dir + "/serve.err");
  // Paced client: the full publish takes ~1.2 s of wall time, so the
  // signal below lands mid-stream deterministically.
  util::Subprocess load = util::Subprocess::spawn(
      {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--client",
       "paced", "--batch-jobs", "16", "--accel", "2000",
       "--gate-patience-ms", "200"},
      dir + "/load.out", dir + "/load.err");

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_EQ(::kill(server.pid(), SIGTERM), 0);
  int server_exit = -1;
  ASSERT_TRUE(server.wait_for(30'000, &server_exit))
      << "SIGTERM did not drain the daemon";
  EXPECT_TRUE(server_exit == 0 || server_exit == 4)
      << "exit " << server_exit << ": " << util::read_file(dir + "/serve.err");
  // The client must not be stranded by the dying server: the gate wait is
  // bounded, publishing into the durable inbox is always legal.
  EXPECT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");

  auto report = parse_report(util::read_file(dir + "/serve.out"));
  EXPECT_EQ(report.at("interrupted"), "1");
  // The final stats made it out whole.
  EXPECT_TRUE(report.count("latency_p99_ms"));
  EXPECT_TRUE(report.count("jobs_per_sec"));
  EXPECT_TRUE(report.count("fingerprint"));
  util::remove_tree(dir);
}

TEST(ServeBackpressure, MissingClientFailsLoudlyInsteadOfHanging) {
  std::string dir = util::make_temp_dir("serve_timeout");
  util::Subprocess server = util::Subprocess::spawn(
      {PS_SERVE_BIN, "--spool", dir + "/spool", "--expect-clients", "2",
       "--hello-timeout-ms", "300", "--stats-ms", "0"},
      dir + "/serve.out", dir + "/serve.err");
  int server_exit = -1;
  ASSERT_TRUE(server.wait_for(30'000, &server_exit));
  EXPECT_EQ(server_exit, 1);
  EXPECT_NE(util::read_file(dir + "/serve.err").find("timed out"),
            std::string::npos);
  util::remove_tree(dir);
}

TEST(ServeBackpressure, NegativeCountFlagsFailAtStartup) {
  // A negative count would wrap in its size_t/uint64_t option; the daemon
  // must refuse it before it starts waiting for hellos.
  const std::pair<const char*, const char*> cases[] = {
      {"--queue-docs", "--queue-docs wants a non-negative integer"},
      {"--racks", "--racks wants an integer in 1..56"}};
  for (const auto& [flag, message] : cases) {
    std::string dir = util::make_temp_dir("serve_flags");
    util::Subprocess server = util::Subprocess::spawn(
        {PS_SERVE_BIN, "--spool", dir + "/spool", "--expect-clients", "1",
         "--hello-timeout-ms", "300", "--stats-ms", "0", flag, "-1"},
        dir + "/serve.out", dir + "/serve.err");
    int server_exit = -1;
    ASSERT_TRUE(server.wait_for(30'000, &server_exit)) << flag;
    EXPECT_EQ(server_exit, 1) << flag;
    std::string err = util::read_file(dir + "/serve.err");
    EXPECT_NE(err.find(message), std::string::npos) << err;
    util::remove_tree(dir);
  }
}

}  // namespace
}  // namespace ps::serve
