// Event-driven step time series of cluster state.
//
// The recorder observes the controller and snapshots node-state counts and
// power at every state-changing event. Values hold between samples (step
// semantics), so time integrals (energy, core-seconds) are exact, not
// sampling approximations — the paper's Fig 6/7/8 quantities derive from
// these integrals.
//
// A sample is fixed-width (64 bytes): the busy-node counts of up to
// FreqCounts::kInlineLevels frequency levels (the Curie table and the
// `[power]` default) sit inside it, and only a longer table spills them to
// one heap block. The series is a util::ChunkedStore of 64 KB chunks (1,024
// samples each), so it grows by appending chunks, never by copying what it
// already holds, and a reference to a recorded sample stays valid while the
// series grows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <utility>

#include "rjms/controller.h"
#include "sim/time.h"
#include "util/chunked_store.h"

namespace ps::metrics {

/// Busy-node counts indexed by FreqIndex. Up to kInlineLevels counts live
/// inside the object; a longer table holds them in one heap block, which
/// the object owns exactly while size() > kInlineLevels.
class FreqCounts {
 public:
  using value_type = std::int32_t;
  static constexpr std::size_t kInlineLevels = 8;

  FreqCounts() noexcept = default;
  FreqCounts(std::initializer_list<value_type> values) {
    assign(values.begin(), values.end());
  }
  FreqCounts(const FreqCounts& other) { assign(other.begin(), other.end()); }
  FreqCounts(FreqCounts&& other) noexcept { take(other); }
  FreqCounts& operator=(const FreqCounts& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  FreqCounts& operator=(FreqCounts&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~FreqCounts() { release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Capacity of the heap block: 0 while the counts are inline, so
  /// sizeof(Sample) + capacity() * sizeof(value_type) is what a sample
  /// occupies.
  std::size_t capacity() const noexcept { return spilled() ? heap().capacity : 0; }

  value_type* begin() noexcept { return data(); }
  value_type* end() noexcept { return data() + size_; }
  const value_type* begin() const noexcept { return data(); }
  const value_type* end() const noexcept { return data() + size_; }
  value_type& operator[](std::size_t i) noexcept { return data()[i]; }
  const value_type& operator[](std::size_t i) const noexcept { return data()[i]; }

  /// Replaces the counts with [first, last) (forward iterators); reuses the
  /// heap block when it is large enough.
  template <class It>
  void assign(It first, It last) {
    std::copy(first, last, resize_for_overwrite(
                               static_cast<std::size_t>(std::distance(first, last))));
  }
  void clear() noexcept {
    release();
    size_ = 0;
  }
  value_type& emplace_back(value_type value = 0);

 private:
  /// The heap block's address and capacity, stored in the inline bytes
  /// while spilled (memcpy keeps the object 4-byte aligned, so a Sample
  /// stays 64 bytes).
  struct Heap {
    value_type* data;
    std::uint32_t capacity;
  };
  static_assert(sizeof(Heap) <= sizeof(value_type) * kInlineLevels);

  bool spilled() const noexcept { return size_ > kInlineLevels; }
  /// A heap block of `capacity` counts; throws std::length_error past the
  /// 32-bit size.
  static Heap allocate(std::size_t capacity);
  Heap heap() const noexcept;
  void set_heap(Heap heap) noexcept;
  value_type* data() noexcept { return spilled() ? heap().data : inline_; }
  const value_type* data() const noexcept { return spilled() ? heap().data : inline_; }
  /// Sets size() to n and returns storage for n counts, values unspecified.
  value_type* resize_for_overwrite(std::size_t n);
  void take(FreqCounts& other) noexcept;
  void release() noexcept;

  std::uint32_t size_ = 0;
  value_type inline_[kInlineLevels] = {};
};

struct Sample {
  sim::Time t = 0;
  double watts = 0.0;
  std::int32_t idle_nodes = 0;
  std::int32_t off_nodes = 0;
  std::int32_t transitioning_nodes = 0;  ///< booting + shutting down
  FreqCounts busy_by_freq;  ///< index = FreqIndex
};
static_assert(sizeof(Sample) == 64, "a sample is fixed-width");

/// A recorded series: samples in time order, at stable addresses.
using Series = util::ChunkedStore<Sample>;

class Recorder final : public rjms::ControllerObserver {
 public:
  /// Registers with the controller and takes the t=0 sample.
  explicit Recorder(rjms::Controller& controller);

  void on_state_change(sim::Time now) override { sample(now); }

  /// Takes a sample now; same-timestamp samples collapse to the latest.
  void sample(sim::Time now);

  const Series& samples() const& noexcept { return samples_; }
  /// Moves the series out of a recorder that is done recording (the end of
  /// a replay), instead of copying it sample by sample.
  Series samples() && { return std::move(samples_); }

  // --- exact step integrals over [from, to) --------------------------------
  /// Energy in joules: integral of watts dt.
  double energy_joules(sim::Time from, sim::Time to) const;
  /// Work in core-seconds: integral of busy cores dt (the paper's "work" /
  /// accumulated cpu time).
  double work_core_seconds(sim::Time from, sim::Time to) const;
  /// Degradation-corrected work: a core computing at a reduced frequency
  /// counts as 1/deg(f) of a full-speed core, deg being the scheduler's
  /// walltime model (cluster::DegradationModel) with `degmin` at the lowest
  /// level. This is the *science throughput* counterpart of the
  /// occupancy-based work above.
  double effective_work_core_seconds(sim::Time from, sim::Time to,
                                     double degmin = 1.63) const;
  /// Maximum instantaneous watts observed in [from, to).
  double max_watts(sim::Time from, sim::Time to) const;
  /// Seconds within [from, to) during which watts exceeded the cap active
  /// at that moment (cap taken from the controller's reservation book).
  double cap_violation_seconds(sim::Time from, sim::Time to,
                               double tolerance_watts = 0.5) const;

 private:
  template <typename Value>
  double integrate(sim::Time from, sim::Time to, Value&& value_at) const;

  rjms::Controller& controller_;
  std::int32_t cores_per_node_;
  Series samples_;
};

}  // namespace ps::metrics
