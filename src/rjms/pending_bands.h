// The controller's pending queue, indexed so that a scheduling pass prices
// users and the jobs it visits instead of the whole queue.
//
// A pass walks pending jobs in pass order: higher
// PriorityCalculator::compute first, then earlier submit time, then lower
// id. The priority is w_age·min(1, wait/sat) + w_size·size + w_fs·fs(user),
// and its structure lets each user keep three bands whose internal order
// does not depend on `now`:
//
//   early      submit_time > now: the wait clamps to 0, so the price is
//              the size term plus fair share; ordered by the size term.
//   young      0 <= wait < age_saturation: every entry ages at the same
//              rate, so the order is fixed at insert by the static key
//              w_size·size - w_age·submit_time/sat.
//   saturated  wait >= age_saturation: the age factor is 1; ordered by the
//              size term.
//
// Entries move early → young → saturated as `now` crosses their submit
// time and then their saturation point, found through one min-heap of
// crossing times. A pass takes each active user's fair-share factor once,
// prices each band's head with the unchanged PriorityCalculator::compute
// and merges the heads through a heap ordered on those doubles, so it costs
// O(users + visited) instead of O(pending · log).
//
// The static order is exact arithmetic; the computed doubles are not. Near
// a tie (e.g. 15 s of age against 28 cores at 80,640 cores) two jobs of one
// band can compute in either order. So a band's candidates for "next" are
// a tie group: every entry whose static key lies within delta_ of the
// largest remaining key, all priced, the best of them taken. delta_ is a
// proven bound on the rounding of both the key and the price (see
// refresh_delta in pending_bands.cc). Same-(submit_time, cores) entries of
// one user price bit-identically, so each such run is priced once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rjms/fairshare.h"
#include "rjms/job.h"
#include "rjms/priority.h"
#include "sim/time.h"

namespace ps::rjms {

class PendingBands {
 public:
  /// A priced job as the pass orders it.
  struct Priced {
    double priority;
    sim::Time submit_time;
    JobId id;
  };
  /// Pass order: higher priority first, then earlier submission, then lower
  /// id — a strict total order, so the order of any set of jobs is unique.
  static bool runs_before(const Priced& a, const Priced& b) noexcept {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
    return a.id < b.id;
  }

  explicit PendingBands(PriorityCalculator priority);

  const PriorityCalculator& priority() const noexcept { return priority_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Queues a pending job as of `now`. The job must stay at its address
  /// while queued (the controller's JobTable never moves a job).
  void insert(Job& job, sim::Time now);
  /// Removes a queued job. Not during a pass: use take() there.
  void erase(const Job& job);
  /// Moves every entry whose band changed by `now`. A pass calls it first.
  void advance(sim::Time now);

  /// Starts a pass at `now` (after advance(now)): prices each active user's
  /// fair-share factor (1 when `fairshare` is null) and each band's head.
  void begin_pass(sim::Time now, const FairShare* fairshare);
  /// The next job in pass order, or null once every queued job was visited.
  Job* next();
  /// The job last returned by next() leaves the queue; end_pass erases it.
  void take();
  /// Ends the pass and erases the taken entries. A no-op outside a pass.
  void end_pass();

  /// Calls fn(job) for every queued job, in no particular order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const User& user : users_) {
      for (const Band& band : user.bands) {
        for (const Slot& slot : band.slots) fn(static_cast<const Job&>(*slot.job));
      }
    }
  }

 private:
  enum BandKind : std::uint8_t { kEarly, kYoung, kSaturated, kBands };
  static constexpr std::size_t kNotProbed = ~std::size_t{0};

  /// One queued job. `key` is the band's static key: the size term in the
  /// early and saturated bands, w_size·size - w_age·submit/sat when young.
  struct Slot {
    double key;
    sim::Time submit_time;
    std::int64_t cores;
    JobId id;
    Job* job;
  };
  /// Priced slots [pos, end) of one (submit_time, cores) run, not yet
  /// visited by the pass.
  struct Run {
    std::size_t pos;
    std::size_t end;
    double priority;
  };
  struct Band {
    /// Sorted by key (descending), then submit time, cores (descending)
    /// and id, so each same-(submit_time, cores) run is contiguous.
    std::vector<Slot> slots;
    // Pass cursor: slots before `next` are in `group` or already visited;
    // `group` keeps its runs in slot order, so its front has the largest
    // key. `best` indexes the group's next run in pass order.
    std::size_t next = 0;
    std::vector<Run> group;
    std::size_t best = 0;
  };
  struct User {
    std::int32_t id = 0;
    std::size_t count = 0;       ///< queued jobs over all bands
    std::size_t active_pos = 0;  ///< index in active_ while count > 0
    double factor = 1.0;         ///< fair-share factor of the current pass
    /// FairShare::usage_slot of the user, once non-null; while null, the
    /// user count it was looked up at (no new slot appears before the
    /// count grows).
    const double* usage = nullptr;
    std::size_t usage_probed_at = kNotProbed;
    Band bands[kBands];
  };
  /// A band's next job in pass order, as the merge heap holds it.
  struct Head {
    Priced priced;
    std::uint32_t user;
    BandKind band;
  };
  /// An entry's next band change: at its submit time (early → young) or
  /// at submit time + age_saturation (young → saturated). It names the
  /// entry by its slot fields, so a job that left the queue is not found.
  struct Crossing {
    sim::Time at;
    sim::Time submit_time;
    std::int64_t cores;
    JobId id;
    std::uint32_t user;
  };
  struct Taken {
    std::uint32_t user;
    BandKind band;
    std::size_t pos;
  };

  static bool slot_before(const Slot& a, const Slot& b) noexcept;
  double key_of(BandKind band, sim::Time submit_time, std::int64_t cores) const;
  std::uint32_t user_index(std::int32_t user);
  void place(std::uint32_t user, BandKind band, Job& job);
  void push_crossing(sim::Time at, const Job& job, std::uint32_t user);
  /// Removes the slot of job `id` from `band` and returns its job; null
  /// when it is not there.
  Job* remove(User& user, BandKind band, sim::Time submit_time, std::int64_t cores, JobId id);
  void release(std::uint32_t user);
  void refresh_delta(sim::Time submit_time);

  /// The user's fair-share factor under `fairshare` (non-null), looking
  /// its usage slot up only while the slot may have appeared.
  double factor_of(User& user, const FairShare& fairshare);
  /// Adds the next run of `band` to its group, priced.
  void add_run(const User& user, Band& band);
  /// Prices the band's tie group and returns its next job in pass order;
  /// false when the band is exhausted.
  bool fill(const User& user, Band& band, Priced& head);
  /// Restores the merge heap after its top entry changed.
  void sift_down_top();

  PriorityCalculator priority_;
  double sat_;          ///< age_saturation as a double
  double total_cores_;  ///< the machine's cores as a double
  double delta_ = 0.0;
  double key_span_ = 0.0;  ///< max |w_age·submit/sat| over inserted jobs

  std::vector<User> users_;
  const FairShare* priced_by_ = nullptr;  ///< the FairShare users' slots point into
  std::unordered_map<std::int32_t, std::uint32_t> user_of_;
  std::vector<std::uint32_t> active_;  ///< users with queued jobs
  std::vector<Crossing> crossings_;    ///< min-heap on `at`
  std::size_t size_ = 0;

  // Pass state.
  bool in_pass_ = false;
  sim::Time now_ = 0;
  std::vector<Head> heap_;  ///< max-heap in pass order
  Taken last_{};
  bool has_last_ = false;
  std::vector<Taken> taken_;
};

}  // namespace ps::rjms
