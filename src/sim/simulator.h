// Discrete-event simulator driver.
//
// Single-threaded, deterministic: events at equal timestamps fire in the
// order they were scheduled. Components schedule closures; there is no
// global event-type registry, which keeps substrates decoupled (the RJMS
// controller, power manager and replayer each own their callbacks).
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace ps::sim {

class Simulator {
 public:
  /// Current simulation time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules `callback` at absolute time `at` (clamped to now — events may
  /// not be scheduled in the past) in the current default band. Returns a
  /// cancellation handle.
  EventId schedule_at(Time at, EventQueue::Callback callback);

  /// Schedules `callback` after `delay` (>= 0) from now.
  EventId schedule_in(Duration delay, EventQueue::Callback callback);

  /// Schedules `callback` at `at` in an explicit band (the streaming
  /// workload pump pins EventBand::kSubmit; see EventBand).
  EventId schedule_at_band(Time at, EventBand band, EventQueue::Callback callback);

  /// Band every plain schedule_at/schedule_in call lands in. Starts at
  /// kSetup; a replay driver that streams submissions switches it to
  /// kNormal just before running the clock so runtime-scheduled events sort
  /// after the pump at equal timestamps. Harnesses that never switch keep a
  /// constant band, which is plain FIFO — the pre-band order.
  void set_default_band(EventBand band) noexcept { default_band_ = band; }
  EventBand default_band() const noexcept { return default_band_; }

  /// Cancels a pending event; false if already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events with time <= `until`, then advances the clock to exactly
  /// `until` (even if no event sits there). Returns events fired.
  std::uint64_t run_until(Time until);

  /// Fires exactly one event if any is pending; returns whether one fired.
  bool step();

  bool pending() const noexcept { return !queue_.empty(); }
  Time next_event_time() const { return queue_.next_time(); }

  /// Total events fired since construction.
  std::uint64_t fired_count() const noexcept { return fired_; }
  /// Total events ever scheduled (cancellations included) — cold accessor
  /// for post-run registry publishing.
  std::uint64_t scheduled_count() const noexcept { return queue_.pushed_count(); }

 private:
  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t fired_ = 0;
  EventBand default_band_ = EventBand::kSetup;
};

}  // namespace ps::sim
