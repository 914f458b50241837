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

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/node_bits.h"
#include "cluster/topology.h"
#include "sim/time.h"
#include "util/chunked_store.h"

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
  /// [from, to) on its nodes. The single source of blocking semantics:
  /// BlockedSet::ensure defers here, and so does the tests' reference scan.
  bool blocks_job_span(sim::Time from, sim::Time to) const noexcept {
    if (kind == ReservationKind::Powercap) return false;
    if (kind == ReservationKind::SwitchOff && permissive) {
      // Permissive: only job *starts* inside the window are forbidden.
      return active_at(from);
    }
    return overlaps(from, to);
  }
};

/// Registry of reservations with the queries the scheduler needs. The book
/// only grows and keeps its reservations in a util::ChunkedStore, so a
/// reference from find() or all() stays valid across later adds. The
/// queries are sized to its traffic: a replay holds a few hundred reservations and asks about a
/// random interval about once per cap window, but about the simulated `now`
/// a million times (docs/ARCHITECTURE.md, "Reservation book").
///   * `for_each_overlapping` is one scan of `reservations_`;
///   * `for_each_active` and `cap_at` read a per-kind memo of the set active
///     at the last queried instant, valid until the next start or the
///     earliest end in the set, so a miss (one scan) comes once per
///     reservation boundary instead of once per call;
///   * `starting_in` and `next_start_after` binary-search a per-kind
///     (start, id) column, rebuilt lazily when `version()` moves.
/// Both visiting queries report in id order so floating-point folds over
/// reservations stay bit-stable.
class ReservationBook {
 public:
  using Store = util::ChunkedStore<Reservation>;

  /// Reservations of one kind in (start, id) order: a contiguous run of
  /// the kind's start column. Valid until the book next changes.
  class StartRun {
   public:
    class iterator {
     public:
      iterator(const Store* base, const std::uint32_t* pos) : base_(base), pos_(pos) {}
      const Reservation& operator*() const { return (*base_)[*pos_]; }
      iterator& operator++() {
        ++pos_;
        return *this;
      }
      bool operator!=(const iterator& other) const { return pos_ != other.pos_; }

     private:
      const Store* base_;
      const std::uint32_t* pos_;
    };

    StartRun(const Store* base, const std::uint32_t* first, const std::uint32_t* last)
        : base_(base), first_(first), last_(last) {}
    iterator begin() const { return {base_, first_}; }
    iterator end() const { return {base_, last_}; }
    std::size_t size() const noexcept { return static_cast<std::size_t>(last_ - first_); }
    const Reservation& operator[](std::size_t i) const { return (*base_)[first_[i]]; }

   private:
    const Store* base_;
    const std::uint32_t* first_;
    const std::uint32_t* last_;
  };

  /// Adds a reservation and returns its id: its position + 1, since the
  /// book only grows. Throws ps::CheckError on inverted windows or (for
  /// node kinds) empty node lists.
  ReservationId add(Reservation reservation);

  /// The reservation `id` names, by index. Throws ps::CheckError on an id
  /// this book never gave out. The reference outlives later adds.
  const Reservation& find(ReservationId id) const;
  /// Every reservation in id order, at addresses later adds keep.
  const Store& all() const noexcept { return reservations_; }

  /// Interval query: calls `fn(const Reservation&)` for each reservation of
  /// `kind` overlapping [from, to), in id order, by one scan of the book.
  /// Queries may nest (a callback may issue further queries); callbacks
  /// must not mutate the book.
  template <typename Fn>
  void for_each_overlapping(ReservationKind kind, sim::Time from, sim::Time to,
                            Fn&& fn) const {
    for (const Reservation& r : reservations_) {
      if (r.kind == kind && r.overlaps(from, to)) fn(r);
    }
  }

  /// Calls `fn(const Reservation&)` for each reservation of `kind` active at
  /// `t` (start <= t < end), in id order, off the kind's memo: a hit costs
  /// no search, a miss (`t` outside the memo's validity interval, or the
  /// book changed) refills it with one scan. Meant for a forward-moving
  /// `t`; any `t` is answered exactly. Queries may nest: a callback asking
  /// about another instant of the same kind is answered by a scan and
  /// leaves the memo being walked alone. Callbacks must not mutate the
  /// book.
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
      refill_active(kind, t);
    }
    WalkGuard guard(memo.walkers);
    for (std::uint32_t pos : memo.positions) fn(reservations_[pos]);
  }

  /// Reservations of `kind` with from < start < to, in (start, id) order.
  /// Empty when to <= from + 1.
  StartRun starting_in(ReservationKind kind, sim::Time from, sim::Time to) const;

  /// Mutation stamp: each add draws it from one process-wide counter, so
  /// no two grown books ever share a version. Lets derived caches (e.g.
  /// BlockedSet) detect staleness, or a different book, without observing
  /// every call site.
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

  /// Per-kind start index. `by_start` holds the kind's positions into
  /// reservations_ sorted by (start, id) and `starts` their start times.
  struct KindIndex {
    std::vector<std::uint32_t> by_start;
    std::vector<sim::Time> starts;
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

  void rebuild_index() const;
  /// Makes the memo of `kind` the set active at `t`.
  void refill_active(ReservationKind kind, sim::Time t) const;

  Store reservations_;  // append-only: id = position + 1
  std::uint64_t version_ = 0;  // 0 until the first add: a fresh, empty book

  mutable KindIndex index_[3];
  mutable std::uint64_t indexed_version_ = ~0ull;
};

/// Which nodes reservations block for a job spanning [start, horizon):
/// the only way node selection learns about reservations. It keeps the
/// cluster's node-bit layout (cluster/node_bits.h), so a selector reads a
/// chassis's blocked nodes as the same windows as its idle ones.
///
/// The words depend only on which reservations block, not on the span
/// itself, and a pass prices each job with its own horizon. So ensure()
/// keys the words on (book version, ids of the blocking reservations) and
/// rewrites them only when that key moves. The blocking ids are a
/// function of the horizon that is constant between consecutive starts of
/// the strict reservations ahead of `start`; ensure() remembers that
/// interval and answers a horizon inside it, at the same `start` and book
/// version, without walking the book.
class BlockedSet {
 public:
  /// Makes the set describe [start, horizon) under `book`, over node ids
  /// [0, total_nodes); reserved ids outside that range are ignored.
  void ensure(const ReservationBook& book, sim::Time start, sim::Time horizon,
              std::int32_t total_nodes);

  bool blocked(cluster::NodeId node) const noexcept { return bits_.test(node); }

  /// Blocked bits of nodes [first, first + len), as
  /// cluster::Cluster::idle_window reads idle ones.
  std::uint64_t window(cluster::NodeId first, std::int32_t len) const noexcept {
    return bits_.window(first, len);
  }

  std::int32_t size() const noexcept { return bits_.size(); }

 private:
  cluster::NodeBits bits_;
  // The key of bits_: the book version and the ids (ascending) of the
  // reservations whose nodes it holds.
  std::uint64_t book_version_ = ~0ull;
  std::vector<ReservationId> ids_;
  // The last query's `start` and the horizons [horizon_lo_, horizon_hi_)
  // that block the same reservations there.
  sim::Time start_ = -1;
  sim::Time horizon_lo_ = 0;
  sim::Time horizon_hi_ = 0;
  // The blocking reservations of one walk; reused across calls.
  std::vector<const Reservation*> scratch_;
};

}  // namespace ps::rjms
