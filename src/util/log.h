// Minimal leveled logger.
//
// The simulator is deterministic and single-threaded per run, but sweeps run
// several simulations from a thread pool, so the sink is mutex-protected.
// Logging is off (Level::Warn) by default in benches/tests to keep output
// reproducible; examples turn it up.
//
// Output shape is configurable without touching call sites:
//   * Format::Plain (default) emits exactly `[LEVEL] message` — byte-identical
//     to what this logger has always produced, so fenced stderr expectations
//     never move.
//   * Format::Json emits one JSON object per line ({"ts":...,"tid":...,
//     "level":...,"msg":...}) for log shippers: a UTC wall-clock stamp
//     (`2026-08-08T12:00:00.123Z`) and a small per-thread ordinal, for
//     correlating daemon logs with telemetry documents (obs/registry.h).
#pragma once

#include <mutex>
#include <sstream>
#include <string>

namespace ps::log {

enum class Level { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

enum class Format { Plain = 0, Json = 1 };

/// Global log threshold; messages below it are discarded.
void set_level(Level level) noexcept;
Level level() noexcept;

/// Sink format; Plain by default (and byte-identical to the historical
/// output).
void set_format(Format format) noexcept;
Format format() noexcept;

/// Returns a short uppercase tag ("TRACE".."ERROR") for a level.
const char* level_name(Level level) noexcept;

namespace detail {
void emit(Level level, const std::string& message);
}

/// Stream-style log statement: `ps::log::Message(Level::Info) << "x=" << x;`
/// The message is emitted on destruction.
class Message {
 public:
  explicit Message(Level lvl) : level_(lvl), enabled_(lvl >= level()) {}
  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;
  ~Message() {
    if (enabled_) detail::emit(level_, stream_.str());
  }

  template <typename T>
  Message& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  Level level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace ps::log

#define PS_LOG(lvl) ::ps::log::Message(::ps::log::Level::lvl)
