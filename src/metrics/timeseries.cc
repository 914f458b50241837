#include "metrics/timeseries.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/degradation.h"
#include "util/check.h"

namespace ps::metrics {

FreqCounts::Heap FreqCounts::heap() const noexcept {
  Heap heap;
  std::memcpy(&heap, inline_, sizeof heap);
  return heap;
}

void FreqCounts::set_heap(Heap heap) noexcept { std::memcpy(inline_, &heap, sizeof heap); }

FreqCounts::Heap FreqCounts::allocate(std::size_t capacity) {
  if (capacity > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("FreqCounts: too many levels");
  }
  return {new value_type[capacity], static_cast<std::uint32_t>(capacity)};
}

FreqCounts::value_type* FreqCounts::resize_for_overwrite(std::size_t n) {
  if (n <= kInlineLevels) {
    release();
  } else if (!spilled() || heap().capacity < n) {
    Heap grown = allocate(n);
    release();
    set_heap(grown);
  }
  size_ = static_cast<std::uint32_t>(n);
  return data();
}

FreqCounts::value_type& FreqCounts::emplace_back(value_type value) {
  if (size_ == kInlineLevels || (spilled() && size_ == heap().capacity)) {
    Heap grown = allocate(2 * std::size_t{size_});
    std::copy(begin(), end(), grown.data);
    release();
    set_heap(grown);
  }
  // At size_ == kInlineLevels the block was just made; this push spills.
  value_type* slot = (size_ >= kInlineLevels ? heap().data : inline_) + size_;
  ++size_;
  return *slot = value;
}

void FreqCounts::take(FreqCounts& other) noexcept {
  size_ = other.size_;
  std::memcpy(inline_, other.inline_, sizeof inline_);
  other.size_ = 0;
}

void FreqCounts::release() noexcept {
  if (spilled()) delete[] heap().data;
}

Recorder::Recorder(rjms::Controller& controller)
    : controller_(controller),
      cores_per_node_(controller.cluster().topology().cores_per_node()) {
  controller_.add_observer(this);
  sample(controller_.simulator().now());
}

void Recorder::sample(sim::Time now) {
  const cluster::Cluster& cl = controller_.cluster();
  // A same-instant update overwrites the last sample in place; a new
  // instant appends one, which costs no allocation while the frequency
  // table fits FreqCounts' inline levels.
  if (samples_.empty() || samples_.back().t != now) {
    PS_CHECK_MSG(samples_.empty() || samples_.back().t < now,
                 "recorder: time went backwards");
    samples_.emplace_back();
  }
  Sample& s = samples_.back();
  s.t = now;
  s.watts = cl.watts();
  s.idle_nodes = cl.count(cluster::NodeState::Idle);
  s.off_nodes = cl.count(cluster::NodeState::Off);
  s.transitioning_nodes = cl.count(cluster::NodeState::Booting) +
                          cl.count(cluster::NodeState::ShuttingDown);
  const std::vector<std::int32_t>& busy = cl.busy_count_by_freq();
  s.busy_by_freq.assign(busy.begin(), busy.end());
}

template <typename Value>
double Recorder::integrate(sim::Time from, sim::Time to, Value&& value_at) const {
  PS_CHECK_MSG(from <= to, "integrate: inverted interval");
  if (samples_.empty() || from == to) return 0.0;
  double total = 0.0;
  for (auto it = samples_.begin(); it != samples_.end(); ++it) {
    auto next = std::next(it);
    sim::Time seg_start = it->t;
    sim::Time seg_end = next != samples_.end() ? next->t : to;
    sim::Time lo = std::max(seg_start, from);
    sim::Time hi = std::min(seg_end, to);
    if (hi > lo) total += value_at(*it) * sim::to_seconds(hi - lo);
    if (seg_start >= to) break;
  }
  return total;
}

double Recorder::energy_joules(sim::Time from, sim::Time to) const {
  return integrate(from, to, [](const Sample& s) { return s.watts; });
}

double Recorder::work_core_seconds(sim::Time from, sim::Time to) const {
  return integrate(from, to, [this](const Sample& s) {
    std::int64_t busy = 0;
    for (std::int32_t n : s.busy_by_freq) busy += n;
    return static_cast<double>(busy * cores_per_node_);
  });
}

double Recorder::effective_work_core_seconds(sim::Time from, sim::Time to,
                                             double degmin) const {
  const cluster::FrequencyTable& table = controller_.cluster().frequencies();
  cluster::DegradationModel degradation(table, degmin);
  std::vector<double> speed(table.size());
  for (cluster::FreqIndex f = 0; f < table.size(); ++f) speed[f] = 1.0 / degradation.factor(f);
  return integrate(from, to, [this, &speed](const Sample& s) {
    double effective = 0.0;
    for (std::size_t f = 0; f < s.busy_by_freq.size(); ++f) {
      effective += static_cast<double>(s.busy_by_freq[f]) * speed[f];
    }
    return effective * cores_per_node_;
  });
}

double Recorder::max_watts(sim::Time from, sim::Time to) const {
  double peak = 0.0;
  for (auto it = samples_.begin(); it != samples_.end(); ++it) {
    auto next = std::next(it);
    sim::Time seg_start = it->t;
    sim::Time seg_end = next != samples_.end() ? next->t : to;
    if (seg_end > from && seg_start < to) peak = std::max(peak, it->watts);
    if (seg_start >= to) break;
  }
  return peak;
}

double Recorder::cap_violation_seconds(sim::Time from, sim::Time to,
                                       double tolerance_watts) const {
  const rjms::ReservationBook& book = controller_.reservations();
  return integrate(from, to, [&book, tolerance_watts](const Sample& s) {
    double cap = book.cap_at(s.t);
    return s.watts > cap + tolerance_watts ? 1.0 : 0.0;
  });
}

}  // namespace ps::metrics
