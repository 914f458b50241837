#include "obs/trace.h"

#include <ctime>
#include <memory>
#include <mutex>
#include <vector>

#include "util/check.h"
#include "util/spool.h"
#include "util/strings.h"

namespace ps::obs {

namespace detail {

std::atomic<bool> g_tracing{false};

std::int64_t trace_clock_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct TraceEvent {
  const char* name = nullptr;
  std::int64_t begin_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Fixed-capacity ring of complete events, single-writer (the owning
/// thread) with a mutex shared against the exporter. Buffers are owned by
/// the global session (shared_ptr) so a thread exiting mid-session cannot
/// invalidate its events before export.
class TraceBuffer {
 public:
  TraceBuffer(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), events_(capacity) {}

  void record(const char* name, std::int64_t begin_ns,
              std::int64_t dur_ns) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == events_.size()) {
      // Wraparound: overwrite the oldest event and say so.
      events_[head_] = {name, begin_ns, dur_ns};
      head_ = (head_ + 1) % events_.size();
      ++dropped_;
    } else {
      events_[(head_ + count_) % events_.size()] = {name, begin_ns, dur_ns};
      ++count_;
    }
  }

  std::uint32_t tid() const noexcept { return tid_; }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }
  /// Oldest-first copy of the live events.
  std::vector<TraceEvent> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i) {
      out.push_back(events_[(head_ + i) % events_.size()]);
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  const std::uint32_t tid_;
  std::vector<TraceEvent> events_;
  std::size_t head_ = 0;   ///< index of the oldest live event
  std::size_t count_ = 0;  ///< live events
  std::uint64_t dropped_ = 0;
};

namespace {

struct Session {
  std::mutex mutex;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  std::size_t per_thread_capacity = 1 << 16;
  std::uint64_t epoch = 0;  ///< bumps every start_tracing
  std::int64_t start_ns = 0;
};

Session& session() {
  static Session* instance = new Session();  // immortal
  return *instance;
}

struct ThreadSlot {
  std::shared_ptr<TraceBuffer> buffer;
  std::uint64_t epoch = ~0ull;
};

thread_local ThreadSlot t_slot;

}  // namespace

TraceBuffer* thread_buffer() {
  Session& s = session();
  // The epoch check makes a stale cache (from a previous session) miss.
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (t_slot.buffer && t_slot.epoch == s.epoch) return t_slot.buffer.get();
    auto buffer = std::make_shared<TraceBuffer>(
        static_cast<std::uint32_t>(s.buffers.size() + 1),
        s.per_thread_capacity);
    s.buffers.push_back(buffer);
    t_slot.buffer = std::move(buffer);
    t_slot.epoch = s.epoch;
  }
  return t_slot.buffer.get();
}

void record(TraceBuffer* buffer, const char* name, std::int64_t begin_ns,
            std::int64_t dur_ns) noexcept {
  buffer->record(name, begin_ns, dur_ns);
}

}  // namespace detail

void start_tracing(std::size_t per_thread_capacity) {
  PS_CHECK_MSG(per_thread_capacity >= 1, "trace: per-thread capacity >= 1");
  detail::Session& s = detail::session();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.buffers.clear();
  s.per_thread_capacity = per_thread_capacity;
  ++s.epoch;
  s.start_ns = detail::trace_clock_ns();
  detail::g_tracing.store(true, std::memory_order_relaxed);
}

void stop_tracing() {
  detail::g_tracing.store(false, std::memory_order_relaxed);
}

bool tracing() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

std::string export_chrome_trace() {
  PS_CHECK_MSG(!tracing(),
               "trace: stop_tracing() before exporting (no live writers)");
  detail::Session& s = detail::session();
  std::vector<std::shared_ptr<detail::TraceBuffer>> buffers;
  std::int64_t start_ns = 0;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    buffers = s.buffers;
    start_ns = s.start_ns;
  }
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : buffers) {
    dropped += buffer->dropped();
    for (const detail::TraceEvent& event : buffer->events()) {
      if (!first) out += ',';
      first = false;
      // Complete ("X") events; ts/dur in microseconds per the trace-event
      // format. Names are span literals: alphanumeric + dots, no escaping
      // needed beyond what check below would catch in debug use.
      out += strings::format(
          "{\"name\":\"%s\",\"cat\":\"ps\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
          event.name, buffer->tid(),
          static_cast<double>(event.begin_ns - start_ns) / 1e3,
          static_cast<double>(event.dur_ns) / 1e3);
    }
  }
  out += strings::format(
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":\"%llu\"}}",
      static_cast<unsigned long long>(dropped));
  return out;
}

void write_chrome_trace(const std::string& path) {
  util::write_file_atomic(path, export_chrome_trace(), /*durable=*/false);
}

}  // namespace ps::obs
