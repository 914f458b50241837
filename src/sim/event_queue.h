// Priority queue of plain-data events with deterministic tie-breaking.
//
// An event is (time, band, seq, handler, kind, arg): the component that
// handles it, a kind byte that component defines and one integer argument.
// The queue holds no code, so it can be printed, compared and hashed. One
// 4-ary min-heap stores the events inline in 32-byte entries; steady-state
// push/pop performs no allocation, and the 4-ary heap is shallower than a
// binary heap and friendlier to the cache on the sift path. An entry's key
// packs (band, insertion seq, kind), so the pop order is the total order
// (time, band, insertion seq): determinism and FIFO tie-breaks are
// structural invariants, not scheduling accidents. Nothing is cancelled:
// an owner that supersedes an event (a killed or rescaled job's end) keeps
// the id of the live one and ignores the others when they fire. Methods are
// defined inline: the simulator drives millions of events per run and the
// hot loops want to inline into the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/check.h"

namespace ps::sim {

/// An event's insertion seq, unique within its queue. 0 is never issued.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// Tie-break lane for equal-time events: the total order is
/// (time, band, insertion seq), Setup < Submit < Normal. A replay schedules
/// its wiring (reservations, cap announcements) before the clock starts,
/// then the submission pump (core/submission_pump.h) reschedules itself
/// while the clock runs. At equal timestamps a submission must fire after
/// the setup wiring and before anything the run itself schedules; the pump's
/// insertion seq alone would sort it after runtime events, so the band
/// fixes its place structurally. Code that never mixes bands (every
/// standalone queue/simulator user) sees plain FIFO tie-breaking.
enum class EventBand : std::uint8_t {
  kSetup = 0,   ///< pre-run wiring (reservations, cap announcements)
  kSubmit = 1,  ///< the replay submission pump
  kNormal = 2,  ///< everything scheduled while the clock runs
};

class EventHandler;

/// A popped event. `kind` and `arg` mean what `handler` defines them to.
struct Event {
  Time time;
  EventBand band;
  std::uint8_t kind;
  EventId seq;
  EventHandler* handler;
  std::int64_t arg;
};

/// A component that schedules events names itself as their handler and
/// decodes each in one on_event switch over its own kinds.
class EventHandler {
 public:
  virtual void on_event(const Event& event) = 0;

 protected:
  ~EventHandler() = default;
};

class EventQueue {
 public:
  /// Enqueues (handler, kind, arg) at `time` in `band`; returns its id.
  EventId push(Time time, EventBand band, EventHandler& handler, std::uint8_t kind,
               std::int64_t arg) {
    PS_CHECK_MSG(next_seq_ < (std::uint64_t{1} << kSeqBits), "event seq exhausted");
    const EventId seq = next_seq_++;
    const std::uint64_t key = (static_cast<std::uint64_t>(band) << kBandShift) |
                              (seq << kKindBits) | kind;
    heap_.push_back(Entry{time, key, &handler, arg});
    sift_up(heap_.size() - 1);
    return seq;
  }

  bool empty() const noexcept { return heap_.empty(); }

  /// Total events ever pushed. Cold accessor for post-run registry
  /// publishing (obs/registry.h).
  std::uint64_t pushed_count() const noexcept { return next_seq_ - 1; }

  /// Time of the earliest event; kTimeMax when empty.
  Time next_time() const noexcept { return heap_.empty() ? kTimeMax : heap_.front().time; }

  /// Removes and returns the earliest event. Requires !empty().
  Event pop() {
    PS_CHECK_MSG(!heap_.empty(), "pop from empty event queue");
    const Entry top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return Event{top.time,
                 static_cast<EventBand>(top.key >> kBandShift),
                 static_cast<std::uint8_t>(top.key),
                 (top.key & ((std::uint64_t{1} << kBandShift) - 1)) >> kKindBits,
                 top.handler,
                 top.arg};
  }

 private:
  // 32 bytes: time, key = band << kBandShift | seq << kKindBits | kind,
  // handler, arg. The band occupies the key's top bits (band-major
  // tie-break), the seq below it so key comparison breaks same-band time
  // ties FIFO; the kind in the low byte never affects the order because the
  // seq is unique.
  struct Entry {
    Time time;
    std::uint64_t key;
    EventHandler* handler;
    std::int64_t arg;
  };

  static constexpr std::size_t kArity = 4;
  static constexpr unsigned kKindBits = 8;
  static constexpr unsigned kBandShift = 62;  // 2 band bits atop the key
  static constexpr unsigned kSeqBits = kBandShift - kKindBits;

  /// Earlier-than for the queue order (time, then band and insertion seq).
  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  void sift_up(std::size_t i) {
    Entry moving = heap_[i];
    while (i > 0) {
      std::size_t parent = (i - 1) / kArity;
      if (!before(moving, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = moving;
  }

  void sift_down(std::size_t i) {
    Entry moving = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best;
      if (first_child + kArity <= n) {
        // Straight-line tournament over the full 4 children (common case).
        std::size_t b01 = before(heap_[first_child + 1], heap_[first_child])
                              ? first_child + 1
                              : first_child;
        std::size_t b23 = before(heap_[first_child + 3], heap_[first_child + 2])
                              ? first_child + 3
                              : first_child + 2;
        best = before(heap_[b23], heap_[b01]) ? b23 : b01;
      } else {
        best = first_child;
        for (std::size_t c = first_child + 1; c < n; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
      }
      if (!before(heap_[best], moving)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = moving;
  }

  std::vector<Entry> heap_;  // 4-ary min-heap over (time, key)
  EventId next_seq_ = 1;
};

}  // namespace ps::sim
