// Log sink formats (util/log.h): the Plain default must stay byte-identical
// to the historical `[LEVEL] message` shape, and Json mode emits one
// valid-shaped, stamped object per line.
#include <gtest/gtest.h>

#include <string>

#include "util/log.h"

namespace ps {
namespace {

/// Restores the global logger configuration on scope exit — these tests
/// mutate process-wide state.
struct LogConfigGuard {
  log::Level level = log::level();
  log::Format format = log::format();
  ~LogConfigGuard() {
    log::set_level(level);
    log::set_format(format);
  }
};

TEST(LogFormat, PlainDefaultIsByteIdentical) {
  LogConfigGuard guard;
  log::set_format(log::Format::Plain);
  testing::internal::CaptureStderr();
  PS_LOG(Warn) << "cap " << 42 << " exceeded";
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] cap 42 exceeded\n");
}

TEST(LogFormat, JsonModeEmitsOneObjectPerLine) {
  LogConfigGuard guard;
  log::set_format(log::Format::Json);
  testing::internal::CaptureStderr();
  PS_LOG(Warn) << "a \"quoted\"\nvalue";
  std::string line = testing::internal::GetCapturedStderr();
  EXPECT_EQ(line.rfind("{\"ts\":\"", 0), 0u) << line;
  // {"ts":"2026-08-08T12:00:00.123Z","tid":N,...
  EXPECT_EQ(line.substr(11, 1), "-") << line;  // year-month separator
  EXPECT_EQ(line.substr(17, 1), "T") << line;
  EXPECT_EQ(line.substr(30, 9), "Z\",\"tid\":") << line;
  EXPECT_NE(line.find("\"level\":\"WARN\""), std::string::npos);
  // Quote and newline escaped: the message must not tear the JSON line.
  EXPECT_NE(line.find("\"msg\":\"a \\\"quoted\\\"\\nvalue\""),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // exactly one physical line
}

TEST(LogFormat, BelowThresholdEmitsNothing) {
  LogConfigGuard guard;
  log::set_level(log::Level::Warn);
  testing::internal::CaptureStderr();
  PS_LOG(Info) << "suppressed";
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace ps
