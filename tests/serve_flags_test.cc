// Every tool refuses a bad flag value before it touches a spool: a cap
// fraction that is zero, negative or not a number, a cap window that is
// empty or ends past sim::Time, a float that is not finite, a rack count
// outside the machine, a tenant weight or admission quantum whose credit
// would overflow, and a time whose ms or ns conversion would overflow
// int64_t. Each ends the tool with exit 1 and a message naming
// the flag or scenario field, and ps-serve does so well inside the hello
// timeout, instead of a crash mid-replay, signed overflow or a silently
// uncapped run.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "util/spool.h"
#include "util/subprocess.h"

namespace ps::serve {
namespace {

constexpr std::int64_t kHelloTimeoutMs = 2000;
constexpr const char* kTooLong = "9223372036854775807";

enum class Tool { kServe, kLoad, kSweepWorker, kSweepDrive };

struct BadFlag {
  Tool tool;
  std::string flag;
  std::string value;
  std::string named;  ///< the flag or field the error message must name
};

/// A run of `tool` that would otherwise wait for clients or work, plus
/// the bad flag.
std::vector<std::string> command(const BadFlag& bad, const std::string& dir) {
  std::vector<std::string> argv;
  switch (bad.tool) {
    case Tool::kServe:
      argv = {PS_SERVE_BIN, "--spool", dir + "/spool", "--expect-clients", "1", "--racks",
              "2", "--policy", "mix", "--stats-ms", "0", "--hello-timeout-ms",
              std::to_string(kHelloTimeoutMs)};
      break;
    case Tool::kLoad:
      argv = {PS_LOAD_BIN, "--spool", dir + "/spool", "--swf",
              std::string(PS_SOURCE_DIR) + "/data/curie_mini.swf", "--client", "solo"};
      break;
    case Tool::kSweepWorker:
      argv = {PS_SWEEP_BIN, "worker", "--spool", dir + "/spool"};
      break;
    case Tool::kSweepDrive:
      argv = {PS_SWEEP_BIN, "drive", "--cells", dir + "/none.cells", "--spool",
              dir + "/spool"};
      break;
  }
  argv.push_back(bad.flag);
  argv.push_back(bad.value);
  return argv;
}

TEST(ServeFlags, BadValuesFailBeforeTheSpoolIsUsed) {
  const std::vector<BadFlag> cases = {
      {Tool::kServe, "--cap-minutes", "0", "--cap-minutes"},
      {Tool::kServe, "--cap-minutes", "153722867280913", "--cap-minutes"},  // * 60000
      {Tool::kServe, "--cap-start", "9223372036854775000", "cap_start"},    // + 1 h
      {Tool::kServe, "--lambda", "0", "cap_lambda"},
      {Tool::kServe, "--lambda", "-0.5", "cap_lambda"},
      {Tool::kServe, "--lambda", "nan", "--lambda"},
      {Tool::kServe, "--accel", "nan", "--accel"},
      {Tool::kServe, "--accel", "inf", "--accel"},
      {Tool::kServe, "--racks", "0", "--racks"},
      {Tool::kServe, "--racks", "57", "--racks"},
      {Tool::kServe, "--hello-timeout-ms", kTooLong, "--hello-timeout-ms"},  // * 1e6
      {Tool::kServe, "--stats-ms", kTooLong, "--stats-ms"},                  // * 1e6
      {Tool::kServe, "--telemetry-seconds", "9223372037", "--telemetry-seconds"},  // * 1e9
      {Tool::kServe, "--checkpoint-seconds", kTooLong, "--checkpoint-seconds"},  // * 1000
      {Tool::kServe, "--admit-window-ms", kTooLong, "--admit-window-ms"},  // * 1e6
      {Tool::kServe, "--quantum-jobs", "4611686018427388", "--quantum-jobs"},  // * weight
      {Tool::kLoad, "--accel", "nan", "--accel"},
      {Tool::kLoad, "--accel", "inf", "--accel"},
      {Tool::kLoad, "--gate-patience-ms", kTooLong, "--gate-patience-ms"},  // * 1e6
      {Tool::kLoad, "--weight", "1001", "--weight"},  // serve::kMaxTenantWeight
      {Tool::kSweepWorker, "--heartbeat-ms", "4611686018428", "--heartbeat-ms"},  // * 2e6
      {Tool::kSweepDrive, "--heartbeat-ms", "4611686018428", "--heartbeat-ms"},
      {Tool::kSweepDrive, "--lease-ms", "9223372036855", "--lease-ms"},  // * 1e6
  };
  for (const BadFlag& bad : cases) {
    SCOPED_TRACE(bad.flag + " " + bad.value);
    std::string dir = util::make_temp_dir("serve_flags");
    auto started = std::chrono::steady_clock::now();
    util::Subprocess tool =
        util::Subprocess::spawn(command(bad, dir), dir + "/tool.out", dir + "/tool.err");
    int exit_code = -1;
    if (!tool.wait_for(30'000, &exit_code)) {
      tool.kill();
      tool.wait();
      ADD_FAILURE() << "the tool did not exit";
    }
    auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count();
    std::string err = util::read_file(dir + "/tool.err");
    EXPECT_EQ(exit_code, 1) << err;
    EXPECT_NE(err.find(bad.named), std::string::npos) << err;
    EXPECT_LT(elapsed_ms, kHelloTimeoutMs) << "waited for clients first";
    EXPECT_FALSE(util::path_exists(dir + "/spool")) << "the spool was used";
    util::remove_tree(dir);
  }
}

}  // namespace
}  // namespace ps::serve
