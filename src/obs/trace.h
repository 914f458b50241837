// Scoped trace spans with Chrome-trace export (docs/ARCHITECTURE.md,
// "Observability").
//
//   PS_TRACE_SPAN("serve.ingest.claim");
//
// records one complete event — wall-clock begin + duration on the calling
// thread — into a bounded per-thread ring buffer, and
// write_chrome_trace("trace.json") exports everything recorded as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto.
//
// Cost model:
//   * tracing **off** (the default): a span is one relaxed atomic load and
//     a branch — a few nanoseconds, fenced by the gated BM_TraceSpan
//     kernel. Spans are therefore safe to leave in shipping code.
//   * tracing **on**: two clock_gettime(CLOCK_MONOTONIC) calls plus a
//     ring-buffer store under an uncontended per-thread mutex.
//
// The ring is bounded: when a thread records past its capacity the oldest
// events are overwritten and counted in the export's "dropped" field —
// tracing can never grow memory without bound, and a truncated trace says
// so instead of lying by omission.
//
// Determinism: spans observe wall time but never feed it back — no
// simulation state, fingerprint input, or scheduling decision reads a
// span. Running any golden-fenced replay with tracing enabled is
// byte-identical to running without (fenced by tests/obs_trace_test.cc).
//
// Span names must be string literals (or otherwise outlive the trace
// session): the ring stores the pointer, not a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace ps::obs {

namespace detail {

extern std::atomic<bool> g_tracing;

class TraceBuffer;
/// The calling thread's ring buffer, created on first use after
/// start_tracing (registered process-wide for export).
TraceBuffer* thread_buffer();
void record(TraceBuffer* buffer, const char* name, std::int64_t begin_ns,
            std::int64_t dur_ns) noexcept;
std::int64_t trace_clock_ns() noexcept;

}  // namespace detail

/// Begins a trace session: clears previous events, sets the per-thread
/// ring capacity (events per thread), and enables span recording.
void start_tracing(std::size_t per_thread_capacity = 1 << 16);

/// Stops recording. Export requires a stopped session.
void stop_tracing();

/// True while spans record.
bool tracing() noexcept;

/// Chrome trace-event JSON ({"traceEvents":[...]}) of everything recorded,
/// with the oldest-overwritten event count of all thread rings in
/// otherData.dropped. Timestamps are microseconds relative to
/// start_tracing. Requires a stopped session (no concurrent writers while
/// exporting).
std::string export_chrome_trace();

/// export_chrome_trace() to a file (atomic rename).
void write_chrome_trace(const std::string& path);

/// RAII span. Use through PS_TRACE_SPAN, which names the local.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (!detail::g_tracing.load(std::memory_order_relaxed)) return;
    buffer_ = detail::thread_buffer();
    name_ = name;
    begin_ns_ = detail::trace_clock_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (buffer_ == nullptr) return;
    detail::record(buffer_, name_, begin_ns_,
                   detail::trace_clock_ns() - begin_ns_);
  }

 private:
  detail::TraceBuffer* buffer_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t begin_ns_ = 0;
};

}  // namespace ps::obs

#define PS_OBS_CONCAT2(a, b) a##b
#define PS_OBS_CONCAT(a, b) PS_OBS_CONCAT2(a, b)
/// Scoped span: records [here, end of scope] under `name` (string literal).
#define PS_TRACE_SPAN(name) \
  ::ps::obs::Span PS_OBS_CONCAT(ps_trace_span_, __LINE__) { name }
