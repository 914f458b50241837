#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <ctime>

namespace ps::log {

namespace {
std::atomic<Level> g_level{Level::Warn};
std::atomic<Format> g_format{Format::Plain};
std::mutex g_sink_mutex;

/// Small per-thread ordinal, assigned on first log from each thread —
/// stable within a process and far more readable than a kernel tid.
int thread_ordinal() {
  static std::atomic<int> next{0};
  thread_local int ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// UTC wall-clock stamp with millisecond resolution, ISO-8601.
std::string wall_stamp() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  std::tm tm{};
  ::gmtime_r(&ts.tv_sec, &tm);
  // A real stamp is 24 bytes; the buffer fits the 88 that GCC's range
  // analysis allows for unconstrained tm and tv_nsec values.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03ldZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, ts.tv_nsec / 1'000'000);
  return buf;
}

/// JSON string escaping for the fields we emit (control chars, quote,
/// backslash) — log messages are free text and must not tear the line.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void set_level(Level level) noexcept { g_level.store(level, std::memory_order_relaxed); }

Level level() noexcept { return g_level.load(std::memory_order_relaxed); }

void set_format(Format format) noexcept {
  g_format.store(format, std::memory_order_relaxed);
}

Format format() noexcept { return g_format.load(std::memory_order_relaxed); }

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::Trace: return "TRACE";
    case Level::Debug: return "DEBUG";
    case Level::Info: return "INFO";
    case Level::Warn: return "WARN";
    case Level::Error: return "ERROR";
    case Level::Off: return "OFF";
  }
  return "?";
}

namespace detail {
void emit(Level level, const std::string& message) {
  if (format() == Format::Json) {
    std::string line = "{\"ts\":\"" + wall_stamp() + "\",\"tid\":" +
                       std::to_string(thread_ordinal()) + ",\"level\":\"" +
                       level_name(level) + "\",\"msg\":\"" +
                       json_escape(message) + "\"}";
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    std::fprintf(stderr, "%s\n", line.c_str());
    return;
  }
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), message.c_str());
}
}  // namespace detail

}  // namespace ps::log
