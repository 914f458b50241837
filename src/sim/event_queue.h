// Cancellable priority event queue with deterministic tie-breaking.
//
// One 4-ary min-heap of 16-byte (time, key) entries over a slab of callback
// slots. The slab holds the callbacks in fixed-size chunks — growth never
// moves a live std::function, a freelist recycles slots, and steady-state
// push/pop performs no container allocation. The 4-ary heap is shallower
// than a binary heap and friendlier to the cache on the sift path. The key
// packs (band, insertion seq, slot), so the pop order is the total order
// (time, band, insertion seq): determinism and FIFO tie-breaks are
// structural invariants, not scheduling accidents. Cancellation is lazy:
// cancel() frees the slot at once and the stale entry is skipped when it
// surfaces, recognised by its key; a dead-entry counter keeps the
// no-cancellation path free of slot lookups. Methods are defined inline:
// the simulator drives millions of events per run and the hot loops want
// to inline into the caller.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/check.h"

namespace ps::sim {

/// Opaque handle for cancelling a scheduled event. Value 0 is never issued.
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

/// Priority queue of (time, callback) with:
///  * deterministic ordering — equal-time events fire in (band, insertion)
///    order;
///  * O(log n) lazy cancellation — cancelled entries are skipped on pop.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Enqueues `callback` at `time` in `band`; returns a handle for cancel().
  EventId push(Time time, EventBand band, Callback callback) {
    PS_CHECK_MSG(callback != nullptr, "event callback must not be null");
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = slot_count_++;
      PS_CHECK_MSG(slot < (1u << kSlotBits), "too many concurrent events");
      if ((slot >> kChunkBits) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
    }
    Slot& s = slot_ref(slot);
    s.callback = std::move(callback);
    s.live = true;
    PS_CHECK_MSG(next_seq_ < (std::uint64_t{1} << kSeqBits), "event seq exhausted");
    std::uint64_t key = (static_cast<std::uint64_t>(band) << kBandShift) |
                        (next_seq_++ << kSlotBits) | slot;
    s.last_key = key;
    heap_.push_back(Entry{time, key});
    sift_up(heap_.size() - 1);
    ++live_count_;
    // The id is the key plus one so that id 0 is never issued.
    return key + 1;
  }

  /// Band-less convenience overload (standalone queue users): kNormal.
  EventId push(Time time, Callback callback) {
    return push(time, EventBand::kNormal, std::move(callback));
  }

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or the id was never issued.
  bool cancel(EventId id) {
    if (id == kInvalidEventId) return false;
    std::uint64_t key = id - 1;
    std::uint32_t slot = slot_of(key);
    if (slot >= slot_count_) return false;
    Slot& s = slot_ref(slot);
    if (!s.live || s.last_key != key) return false;
    // Lazy: the entry stays where it is and is skipped when it surfaces.
    free_slot(slot);
    ++dead_count_;
    --live_count_;
    return true;
  }

  /// True when no live (non-cancelled) events remain.
  bool empty() const noexcept { return live_count_ == 0; }

  /// Number of live events.
  std::size_t size() const noexcept { return live_count_; }

  /// Total events ever pushed (the sequence counter — cancellations
  /// included). Cold accessor for post-run registry publishing
  /// (obs/registry.h); the hot push path keeps its plain counters.
  std::uint64_t pushed_count() const noexcept { return next_seq_; }

  /// Time of the earliest live event; kTimeMax when empty.
  Time next_time() const {
    discard_dead();
    return heap_.empty() ? kTimeMax : heap_.front().time;
  }

  /// Removes and returns the earliest live event. Requires !empty().
  struct Fired {
    Time time;
    Callback callback;
  };
  Fired pop() {
    discard_dead();
    PS_CHECK_MSG(!heap_.empty(), "pop from empty event queue");
    const Entry top = heap_.front();
    pop_heap_top();
    std::uint32_t slot = slot_of(top.key);
    Fired fired{top.time, std::move(slot_ref(slot).callback)};
    free_slot(slot);
    --live_count_;
    return fired;
  }

 private:
  // An EventId encodes (slot index, insertion seq). The slot remembers the
  // key of the event currently occupying it, so handles to fired/cancelled
  // events can never alias an event that later reuses the slot.
  struct Slot {
    Callback callback;
    std::uint64_t last_key = 0;  // key of the event occupying the slot
    bool live = false;
  };
  // 16 bytes: time + (band << kBandShift | seq << kSlotBits | slot). The
  // band occupies the key's top bits (band-major tie-break), the seq below
  // it so key comparison breaks same-band time ties FIFO; the slot in the
  // low bits never affects the order because the seq is unique.
  struct Entry {
    Time time;
    std::uint64_t key;
  };

  static constexpr std::size_t kArity = 4;
  static constexpr unsigned kSlotBits = 24;  // up to 16.7M concurrent events
  static constexpr unsigned kBandShift = 62; // 2 band bits atop the key
  static constexpr unsigned kSeqBits = kBandShift - kSlotBits;
  static constexpr unsigned kChunkBits = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;

  static std::uint32_t slot_of(std::uint64_t key) noexcept {
    return static_cast<std::uint32_t>(key & ((1u << kSlotBits) - 1));
  }

  Slot& slot_ref(std::uint32_t s) noexcept {
    return chunks_[s >> kChunkBits][s & (kChunkSize - 1)];
  }
  const Slot& slot_ref(std::uint32_t s) const noexcept {
    return chunks_[s >> kChunkBits][s & (kChunkSize - 1)];
  }

  bool entry_live(const Entry& e) const noexcept {
    const Slot& s = slot_ref(slot_of(e.key));
    return s.live && s.last_key == e.key;
  }
  /// Earlier-than for the queue order (time, then band and insertion seq).
  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  void free_slot(std::uint32_t slot) {
    Slot& s = slot_ref(slot);
    s.callback = nullptr;
    s.live = false;
    free_slots_.push_back(slot);
  }

  /// Pops cancelled entries off the heap top so it holds the earliest live
  /// event. The dead-entry counter makes the common no-cancellation case a
  /// single comparison with no slot lookups. Dropping dead entries leaves
  /// the set of live events untouched, so the const next_time() may call
  /// it through the mutable heap.
  void discard_dead() const {
    auto& self = const_cast<EventQueue&>(*this);
    while (dead_count_ != 0 && !heap_.empty() && !entry_live(heap_.front())) {
      self.pop_heap_top();
      --dead_count_;
    }
  }

  void pop_heap_top() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
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

  mutable std::vector<Entry> heap_;  // 4-ary min-heap over (time, key)
  // Slot slab in fixed chunks: growth never moves a live std::function and
  // slot addresses stay stable for the lifetime of the queue.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  mutable std::size_t dead_count_ = 0;  // cancelled entries not yet surfaced
};

}  // namespace ps::sim
