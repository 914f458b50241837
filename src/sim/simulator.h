// Discrete-event simulator driver.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// (band, scheduling) order. Components schedule plain events that name
// themselves as the handler (sim/event_queue.h); there is no global
// event-type registry, which keeps substrates decoupled (the RJMS
// controller, power manager, replayer and submission pump each define
// their own kinds and decode them in their own on_event).
#pragma once

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace ps::sim {

class Simulator {
 public:
  /// Current simulation time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules (handler, kind, arg) at absolute time `at` (clamped to now —
  /// events may not be scheduled in the past) in the current default band.
  /// Returns the event's id.
  EventId schedule_at(Time at, EventHandler& handler, std::uint8_t kind,
                      std::int64_t arg = 0) {
    return schedule_at_band(at, default_band_, handler, kind, arg);
  }

  /// Schedules at `at` in an explicit band (the streaming workload pump
  /// pins EventBand::kSubmit; see EventBand).
  EventId schedule_at_band(Time at, EventBand band, EventHandler& handler,
                           std::uint8_t kind, std::int64_t arg = 0) {
    return queue_.push(at < now_ ? now_ : at, band, handler, kind, arg);
  }

  /// Band every plain schedule_at call lands in. Starts at kSetup; a
  /// replay driver that streams submissions switches it to kNormal just
  /// before running the clock so runtime-scheduled events sort after the
  /// pump at equal timestamps. Harnesses that never switch keep a constant
  /// band, which is plain FIFO — the pre-band order.
  void set_default_band(EventBand band) noexcept { default_band_ = band; }

  /// Runs events with time <= `until`, then advances the clock to exactly
  /// `until` (even if no event sits there). Returns events fired.
  std::uint64_t run_until(Time until);

  /// Fires exactly one event if any is pending; returns whether one fired.
  bool step();

  /// Total events fired since construction. An event its owner ignores on
  /// firing (a job end superseded by a kill or a rescale) counts too.
  std::uint64_t fired_count() const noexcept { return fired_; }
  /// Total events ever scheduled — cold accessor for post-run registry
  /// publishing.
  std::uint64_t scheduled_count() const noexcept { return queue_.pushed_count(); }

 private:
  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t fired_ = 0;
  EventBand default_band_ = EventBand::kSetup;
};

}  // namespace ps::sim
