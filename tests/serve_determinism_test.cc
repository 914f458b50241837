// The live-service determinism fence: the checked-in curie_mini trace,
// published through the spool by 1, 2 and 4 concurrent ps-load client
// processes with different batch shapes, must replay to the SAME committed
// golden fingerprint the offline run_scenario path pins
// (tests/workload_trace_replay_test.cc) — byte-identical scheduling no
// matter how many clients published or in what interleaving.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/spool.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace ps::serve {
namespace {

/// The offline single-window golden digest of curie_mini at racks=2,
/// Policy::Mix, lambda=0.5 (workload_trace_replay_test.cc).
constexpr const char* kGoldenFingerprint = "7cb9a43f79a4103c";
constexpr std::uint64_t kMiniTraceJobs = 400;

std::string mini_trace() {
  return std::string(PS_SOURCE_DIR) + "/data/curie_mini.swf";
}

/// Parses `key value...` report lines into a map (first token -> rest).
std::map<std::string, std::string> parse_report(const std::string& text) {
  std::map<std::string, std::string> fields;
  for (const std::string& line : strings::split(text, '\n')) {
    std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    fields[line.substr(0, space)] = line.substr(space + 1);
  }
  return fields;
}

std::map<std::string, std::string> run_fence(int clients, int batch_jobs) {
  std::string dir = util::make_temp_dir("serve_fence");
  std::string spool = dir + "/spool";
  std::string report_path = dir + "/serve.out";

  util::Subprocess server = util::Subprocess::spawn(
      {PS_SERVE_BIN, "--spool", spool, "--expect-clients",
       strings::format("%d", clients), "--racks", "2", "--policy", "mix",
       "--lambda", "0.5", "--stats-ms", "0"},
      report_path, dir + "/serve.err");

  util::Subprocess load = util::Subprocess::spawn(
      {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--clients",
       strings::format("%d", clients), "--batch-jobs",
       strings::format("%d", batch_jobs)},
      dir + "/load.out", dir + "/load.err");

  EXPECT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");
  int server_exit = -1;
  if (!server.wait_for(60'000, &server_exit)) {
    server.kill();
    server.wait();
    ADD_FAILURE() << "ps-serve did not finish within 60s";
  }
  EXPECT_EQ(server_exit, 0) << util::read_file(dir + "/serve.err");

  std::map<std::string, std::string> report =
      parse_report(util::read_file(report_path));
  util::remove_tree(dir);
  return report;
}

void expect_golden(const std::map<std::string, std::string>& report,
                   int clients) {
  ASSERT_TRUE(report.count("fingerprint"));
  EXPECT_EQ(report.at("fingerprint"), kGoldenFingerprint)
      << clients << " clients diverged from the offline replay";
  EXPECT_EQ(report.at("clients"), strings::format("%d", clients));
  EXPECT_EQ(report.at("jobs_declared"),
            strings::format("%llu",
                            static_cast<unsigned long long>(kMiniTraceJobs)));
  EXPECT_EQ(report.at("admitted"), report.at("jobs_declared"));
  EXPECT_EQ(report.at("clamped"), "0");       // deterministic: never late
  EXPECT_EQ(report.at("interrupted"), "0");
  EXPECT_EQ(report.at("latency_count"),
            report.at("admitted"));            // every job measured
}

TEST(ServeDeterminism, OneClientMatchesOfflineGolden) {
  expect_golden(run_fence(1, 64), 1);
}

TEST(ServeDeterminism, TwoClientsMatchOfflineGolden) {
  // Odd batch size: document boundaries land mid-submit-group, the
  // interleaving the watermark protocol must make invisible.
  expect_golden(run_fence(2, 17), 2);
}

TEST(ServeDeterminism, FourClientsMatchOfflineGolden) {
  expect_golden(run_fence(4, 5), 4);
}

TEST(ServeDeterminism, WallClockModeAdmitsEveryJob) {
  // Wall-clock mode trades determinism for service semantics: late
  // documents are admitted late (clamped), never dropped — every declared
  // job still reaches the controller. A huge finite accel jumps the clock
  // straight to the horizon (clamped before the conversion to sim::Time).
  for (const char* accel : {"200000", "1e300"}) {
    SCOPED_TRACE(accel);
    std::string dir = util::make_temp_dir("serve_wall");
    std::string spool = dir + "/spool";

    util::Subprocess server = util::Subprocess::spawn(
        {PS_SERVE_BIN, "--spool", spool, "--expect-clients", "1", "--racks",
         "2", "--mode", "wall", "--accel", accel, "--stats-ms", "0"},
        dir + "/serve.out", dir + "/serve.err");
    util::Subprocess load = util::Subprocess::spawn(
        {PS_LOAD_BIN, "--spool", spool, "--swf", mini_trace(), "--client",
         "solo", "--batch-jobs", "50"},
        dir + "/load.out", dir + "/load.err");

    EXPECT_EQ(load.wait(), 0) << util::read_file(dir + "/load.err");
    int server_exit = -1;
    ASSERT_TRUE(server.wait_for(60'000, &server_exit))
        << "wall-mode ps-serve hung";
    EXPECT_EQ(server_exit, 0) << util::read_file(dir + "/serve.err");

    std::map<std::string, std::string> report =
        parse_report(util::read_file(dir + "/serve.out"));
    EXPECT_EQ(report.at("admitted"),
              strings::format("%llu",
                              static_cast<unsigned long long>(kMiniTraceJobs)));
    EXPECT_EQ(report.at("interrupted"), "0");
    util::remove_tree(dir);
  }
}

}  // namespace
}  // namespace ps::serve
