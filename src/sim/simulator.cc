#include "sim/simulator.h"

#include <algorithm>

#include "util/check.h"

namespace ps::sim {

EventId Simulator::schedule_at(Time at, EventQueue::Callback callback) {
  return queue_.push(std::max(at, now_), default_band_, std::move(callback));
}

EventId Simulator::schedule_in(Duration delay, EventQueue::Callback callback) {
  PS_CHECK_MSG(delay >= 0, "negative event delay");
  return queue_.push(now_ + delay, default_band_, std::move(callback));
}

EventId Simulator::schedule_at_band(Time at, EventBand band,
                                    EventQueue::Callback callback) {
  return queue_.push(std::max(at, now_), band, std::move(callback));
}

std::uint64_t Simulator::run_until(Time until) {
  PS_CHECK_MSG(until >= now_, "run_until into the past");
  std::uint64_t fired_now = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    step();
    ++fired_now;
  }
  now_ = until;
  return fired_now;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  PS_CHECK_MSG(fired.time >= now_, "event queue went backwards");
  now_ = fired.time;
  ++fired_;
  fired.callback();
  return true;
}

}  // namespace ps::sim
