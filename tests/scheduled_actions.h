// Test helper: runs test code at chosen instants through plain simulator
// events. The handler keeps the actions; an event's arg is the index of
// its action, so the queue itself stays free of closures. Actions may
// schedule further actions. Equal-time actions fire in the order they were
// scheduled, like any events of one band.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/simulator.h"

namespace ps::sim {

class ScheduledActions final : public EventHandler {
 public:
  explicit ScheduledActions(Simulator& simulator) : simulator_(simulator) {}

  /// Runs `action` at `time` in the simulator's default band.
  EventId at(Time time, std::function<void()> action) {
    actions_.push_back(std::move(action));
    return simulator_.schedule_at(time, *this, /*kind=*/0,
                                  static_cast<std::int64_t>(actions_.size() - 1));
  }

  void on_event(const Event& event) override {
    // A deque: an action that schedules another never moves itself.
    actions_[static_cast<std::size_t>(event.arg)]();
  }

 private:
  Simulator& simulator_;
  std::deque<std::function<void()>> actions_;
};

}  // namespace ps::sim
