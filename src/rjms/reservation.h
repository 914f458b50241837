// Advance reservations (paper §V).
//
// The paper extends SLURM reservations with a Watts parameter (powercap
// windows) and uses a specific reservation type to trigger grouped node
// shutdown from the offline scheduling phase. Three kinds:
//   * Maintenance — nodes unavailable for jobs during the window (kept
//     powered); the classic SLURM reservation.
//   * SwitchOff   — nodes unavailable AND powered off during the window;
//     carries the planned power saving the offline algorithm computed
//     (including grouping bonus), used by online power projections.
//   * Powercap    — a watts budget over a window; no nodes attached.
//     end == kTimeMax means "set for now, no time limitation".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/topology.h"
#include "sim/time.h"

namespace ps::rjms {

using ReservationId = std::int64_t;

enum class ReservationKind : std::uint8_t { Maintenance, SwitchOff, Powercap };

struct Reservation {
  ReservationId id = 0;
  ReservationKind kind = ReservationKind::Maintenance;
  sim::Time start = 0;
  sim::Time end = 0;  ///< exclusive; kTimeMax = open-ended

  /// Maintenance/SwitchOff: the reserved nodes (sorted ascending).
  std::vector<cluster::NodeId> nodes;

  /// Powercap: the budget in watts.
  double watts = 0.0;

  /// SwitchOff: planned cluster-power saving when all nodes of this
  /// reservation are off, including hierarchy bonuses.
  double planned_saving_watts = 0.0;

  /// SwitchOff only. Strict (false): nodes are blocked for any job whose
  /// span overlaps the window — the classic SLURM semantics; with heavily
  /// over-estimated walltimes this parks the reserved nodes long before
  /// the window. Permissive (true): jobs may start on reserved nodes up to
  /// the window start; at window start busy nodes are skipped and powered
  /// off as their jobs release them (opportunistic shutdown) — this keeps
  /// pre-window utilization full, matching the paper's Fig 6/7 replays.
  bool permissive = false;

  bool overlaps(sim::Time from, sim::Time to) const noexcept {
    return start < to && from < end;
  }
  bool active_at(sim::Time t) const noexcept { return start <= t && t < end; }

  /// True when this reservation forbids starting a job spanning
  /// [from, to) on its nodes. The single source of blocking semantics —
  /// ReservationBook::node_blocked and BlockedSet::ensure both defer here
  /// so the cached and fallback availability paths can never diverge.
  bool blocks_job_span(sim::Time from, sim::Time to) const noexcept {
    if (kind == ReservationKind::Powercap) return false;
    if (kind == ReservationKind::SwitchOff && permissive) {
      // Permissive: only job *starts* inside the window are forbidden.
      return active_at(from);
    }
    return overlaps(from, to);
  }
};

/// Registry of reservations with the interval queries the scheduler needs.
///
/// Every kind has one index, rebuilt lazily when `version()` moves
/// (mutations are rare next to queries): the kind's positions sorted by
/// (start, id), a flat column of their starts, and a max-end segment tree
/// over that order. Two query shapes run off it:
///   * random intervals (`for_each_overlapping`, `node_blocked`) walk the
///     tree: O(log n + matches);
///   * questions about the simulated `now`, which only moves forward
///     (`for_each_active`, `cap_at`, `starting_in`). Each kind memoizes the
///     set active at the last queried instant, valid until the next start
///     or the earliest end in the set, so a replay pays one stabbing query
///     per reservation boundary instead of one per call; `starting_in` is
///     a binary search on the start column.
/// `for_each_overlapping` and `for_each_active` report in id order so
/// floating-point folds over reservations stay bit-stable.
class ReservationBook {
 public:
  /// Reservations of one kind in (start, id) order: a contiguous run of
  /// the kind's start column. Valid until the book next changes.
  class StartRun {
   public:
    class iterator {
     public:
      iterator(const Reservation* base, const std::uint32_t* pos) : base_(base), pos_(pos) {}
      const Reservation& operator*() const { return base_[*pos_]; }
      iterator& operator++() {
        ++pos_;
        return *this;
      }
      bool operator!=(const iterator& other) const { return pos_ != other.pos_; }

     private:
      const Reservation* base_;
      const std::uint32_t* pos_;
    };

    StartRun(const Reservation* base, const std::uint32_t* first, const std::uint32_t* last)
        : base_(base), first_(first), last_(last) {}
    iterator begin() const { return {base_, first_}; }
    iterator end() const { return {base_, last_}; }
    std::size_t size() const noexcept { return static_cast<std::size_t>(last_ - first_); }
    const Reservation& operator[](std::size_t i) const { return base_[first_[i]]; }

   private:
    const Reservation* base_;
    const std::uint32_t* first_;
    const std::uint32_t* last_;
  };

  /// Adds a reservation and returns its id. Throws ps::CheckError on
  /// inverted windows or (for node kinds) empty node lists.
  ReservationId add(Reservation reservation);

  /// Removes by id; false when unknown.
  bool remove(ReservationId id);

  const Reservation* find(ReservationId id) const;
  const std::vector<Reservation>& all() const noexcept { return reservations_; }

  /// True if `node` is covered by a Maintenance/SwitchOff reservation
  /// blocking a job spanning [from, to).
  bool node_blocked(cluster::NodeId node, sim::Time from, sim::Time to) const;

  /// Allocation-free interval query: calls `fn(const Reservation&)` for each
  /// reservation of `kind` overlapping [from, to), in id order. Queries may
  /// nest (a callback may issue further queries); callbacks must not mutate
  /// the book.
  template <typename Fn>
  void for_each_overlapping(ReservationKind kind, sim::Time from, sim::Time to,
                            Fn&& fn) const {
    if (indexed_version_ != version_) rebuild_index();
    const KindIndex& ki = index_[static_cast<std::size_t>(kind)];
    ScratchLease lease(*this);
    std::vector<std::uint32_t>& matches = lease.buf();
    collect_overlapping(ki, 1, 0, ki.leaf_count, from, to, matches);
    std::sort(matches.begin(), matches.end());  // position order == id order
    for (std::uint32_t pos : matches) fn(reservations_[pos]);
  }

  /// Calls `fn(const Reservation&)` for each reservation of `kind` active at
  /// `t` (start <= t < end), in id order, off the kind's memo: a hit costs
  /// no search, a miss (`t` outside the memo's validity interval, or the
  /// book changed) refills it with one stabbing query. Meant for a
  /// forward-moving `t`; any `t` is answered exactly. Queries may nest: a
  /// callback asking about another instant of the same kind is answered
  /// off the tree and leaves the memo being walked alone. Callbacks must
  /// not mutate the book.
  template <typename Fn>
  void for_each_active(ReservationKind kind, sim::Time t, Fn&& fn) const {
    if (indexed_version_ != version_) rebuild_index();
    KindIndex& ki = index_[static_cast<std::size_t>(kind)];
    ActiveMemo& memo = ki.active;
    if (t < memo.at || t >= memo.until) {
      if (memo.walkers > 0) {
        for_each_overlapping(kind, t, t + 1, fn);
        return;
      }
      refill_active(ki, t);
    }
    WalkGuard guard(memo.walkers);
    for (std::uint32_t pos : memo.positions) fn(reservations_[pos]);
  }

  /// Reservations of `kind` with from < start < to, in (start, id) order.
  /// Empty when to <= from + 1.
  StartRun starting_in(ReservationKind kind, sim::Time from, sim::Time to) const;

  /// Mutation counter: bumped by add/remove. Lets derived caches (e.g.
  /// BlockedSet) detect staleness without observing every call site.
  std::uint64_t version() const noexcept { return version_; }

  /// Earliest start (resp. end) of a reservation of `kind` strictly after
  /// `t`; sim::kTimeMax when none. The start is a binary search on the
  /// kind's start column, the end a scan over the kind. Lets time-keyed
  /// caches (the governor's admission cache) prove that a pure clock
  /// advance crossed no boundary of that kind and carry their entries
  /// instead of clearing.
  sim::Time next_start_after(ReservationKind kind, sim::Time t) const;
  sim::Time next_end_after(ReservationKind kind, sim::Time t) const;

  /// Effective cap at instant `t`: the minimum watts among active powercap
  /// reservations; +infinity when none.
  double cap_at(sim::Time t) const;

 private:
  /// The set of a kind active at `at`: positions into reservations_ in id
  /// order, exact for every t in [at, until), where `until` is the next
  /// start after `at` or the earliest end in the set, whichever is first.
  /// [at, until) is empty until the first query and after a rebuild.
  struct ActiveMemo {
    sim::Time at = 0;
    sim::Time until = 0;
    std::vector<std::uint32_t> positions;
    std::uint32_t walkers = 0;  ///< for_each_active calls iterating positions
  };

  /// Per-kind interval index. `by_start` holds the kind's positions into
  /// reservations_ sorted by (start, id) and `starts` their start times;
  /// `tree` is a max-end segment tree over by_start (1-based heap layout,
  /// leaf_count padded to a power of two) used to prune stabbing queries.
  struct KindIndex {
    std::vector<std::uint32_t> by_start;
    std::vector<sim::Time> starts;
    std::vector<sim::Time> tree;
    std::size_t leaf_count = 0;
    ActiveMemo active;
  };

  /// Counts a for_each_active walk for as long as it iterates the memo,
  /// unwinding with the callback if it throws.
  class WalkGuard {
   public:
    explicit WalkGuard(std::uint32_t& walkers) : walkers_(walkers) { ++walkers_; }
    ~WalkGuard() { --walkers_; }
    WalkGuard(const WalkGuard&) = delete;
    WalkGuard& operator=(const WalkGuard&) = delete;

   private:
    std::uint32_t& walkers_;
  };

  /// Reentrant scratch acquisition for query result buffers, depth-indexed
  /// so a callback that issues its own for_each_overlapping query never
  /// clobbers the outer one.
  class ScratchLease {
   public:
    explicit ScratchLease(const ReservationBook& book) : book_(book) {
      if (book_.scratch_depth_ == book_.scratch_pool_.size()) {
        book_.scratch_pool_.emplace_back();
      }
      depth_ = book_.scratch_depth_++;
      buf().clear();
    }
    ~ScratchLease() { --book_.scratch_depth_; }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    std::vector<std::uint32_t>& buf() const { return book_.scratch_pool_[depth_]; }

   private:
    const ReservationBook& book_;
    std::size_t depth_ = 0;
  };

  void rebuild_index() const;
  /// Makes `ki.active` the set active at `t`.
  void refill_active(KindIndex& ki, sim::Time t) const;
  /// Appends positions of by_start entries overlapping [from, to) under the
  /// subtree `node` covering leaves [lo, lo + len).
  void collect_overlapping(const KindIndex& ki, std::size_t node, std::size_t lo,
                           std::size_t len, sim::Time from, sim::Time to,
                           std::vector<std::uint32_t>& out) const;

  std::vector<Reservation> reservations_;
  ReservationId next_id_ = 1;
  std::uint64_t version_ = 0;

  mutable KindIndex index_[3];
  mutable std::uint64_t indexed_version_ = ~0ull;
  mutable std::vector<std::vector<std::uint32_t>> scratch_pool_;
  mutable std::size_t scratch_depth_ = 0;
};

/// Pass-scoped cache of "which nodes are reservation-blocked for a job
/// spanning [start, horizon)". Built from the ReservationBook in
/// O(reservations + blocked nodes), it turns each node_available probe's
/// interval query (O(reservations × log nodes)) into two array reads.
///
/// Epoch-stamped: ensure() bumps an epoch and restamps the blocked nodes
/// instead of clearing the bitmap, so rebuilds never pay O(total nodes).
/// A rebuild only happens when the book version or the queried interval
/// changed; repeated probes within one scheduling pass hit the cache.
class BlockedSet {
 public:
  /// Makes the set describe [start, horizon) under `book`. No-op when the
  /// cached interval and book version still match.
  void ensure(const ReservationBook& book, sim::Time start, sim::Time horizon,
              std::int32_t total_nodes);

  bool blocked(cluster::NodeId node) const noexcept {
    auto i = static_cast<std::size_t>(node);
    return i < stamps_.size() && stamps_[i] == epoch_;
  }

 private:
  std::vector<std::uint64_t> stamps_;
  std::uint64_t epoch_ = 0;
  std::uint64_t book_version_ = ~0ull;
  sim::Time start_ = -1;
  sim::Time horizon_ = -1;
};

}  // namespace ps::rjms
