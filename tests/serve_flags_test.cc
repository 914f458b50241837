// ps-serve refuses a malformed cap before it waits for clients: a cap
// fraction that is zero, negative or not a number, and a cap window that
// is empty or too long for sim::minutes, each end the daemon with exit 1
// and a message naming the flag or scenario field, well inside the hello
// timeout, instead of a crash mid-replay or a silently uncapped run.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "util/spool.h"
#include "util/subprocess.h"

namespace ps::serve {
namespace {

constexpr std::int64_t kHelloTimeoutMs = 2000;

struct BadCap {
  std::string flag;
  std::string value;
  std::string named;  ///< the flag or field the error message must name
};

TEST(ServeFlags, BadCapValuesFailBeforeWaitingForClients) {
  const std::vector<BadCap> cases = {
      {"--cap-minutes", "0", "--cap-minutes"},
      {"--cap-minutes", "153722867280913", "--cap-minutes"},  // minutes * 60000 overflows
      {"--lambda", "0", "cap_lambda"},
      {"--lambda", "-0.5", "cap_lambda"},
      {"--lambda", "nan", "cap_lambda"},
  };
  for (const BadCap& bad : cases) {
    SCOPED_TRACE(bad.flag + " " + bad.value);
    std::string dir = util::make_temp_dir("serve_flags");
    auto started = std::chrono::steady_clock::now();
    util::Subprocess server = util::Subprocess::spawn(
        {PS_SERVE_BIN, "--spool", dir + "/spool", "--expect-clients", "1", "--racks", "2",
         "--policy", "mix", "--stats-ms", "0", "--hello-timeout-ms",
         std::to_string(kHelloTimeoutMs), bad.flag, bad.value},
        dir + "/serve.out", dir + "/serve.err");
    int exit_code = -1;
    if (!server.wait_for(30'000, &exit_code)) {
      server.kill();
      server.wait();
      ADD_FAILURE() << "ps-serve did not exit";
    }
    auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count();
    std::string err = util::read_file(dir + "/serve.err");
    EXPECT_EQ(exit_code, 1) << err;
    EXPECT_NE(err.find(bad.named), std::string::npos) << err;
    EXPECT_LT(elapsed_ms, kHelloTimeoutMs) << "waited for clients first";
    util::remove_tree(dir);
  }
}

}  // namespace
}  // namespace ps::serve
