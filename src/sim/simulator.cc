#include "sim/simulator.h"

#include "util/check.h"

namespace ps::sim {

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
  const Event event = queue_.pop();
  PS_CHECK_MSG(event.time >= now_, "event queue went backwards");
  now_ = event.time;
  ++fired_;
  event.handler->on_event(event);
  return true;
}

}  // namespace ps::sim
