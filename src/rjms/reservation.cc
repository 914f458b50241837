#include "rjms/reservation.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "util/check.h"

namespace ps::rjms {

namespace {
/// Source of every book's version: unique across books, so a version names
/// one book's contents.
std::atomic<std::uint64_t> g_book_versions{0};

std::uint64_t next_book_version() noexcept {
  return g_book_versions.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// First start in a kind's start column strictly after `t`; kTimeMax when none.
sim::Time first_start_after(const std::vector<sim::Time>& starts, sim::Time t) {
  auto next = std::upper_bound(starts.begin(), starts.end(), t);
  return next == starts.end() ? sim::kTimeMax : *next;
}
}  // namespace

ReservationId ReservationBook::add(Reservation reservation) {
  PS_CHECK_MSG(reservation.start < reservation.end, "reservation window inverted or empty");
  if (reservation.kind == ReservationKind::Powercap) {
    PS_CHECK_MSG(reservation.watts > 0.0, "powercap reservation needs positive watts");
  } else {
    PS_CHECK_MSG(!reservation.nodes.empty(), "node reservation needs nodes");
    std::sort(reservation.nodes.begin(), reservation.nodes.end());
    auto dup = std::adjacent_find(reservation.nodes.begin(), reservation.nodes.end());
    PS_CHECK_MSG(dup == reservation.nodes.end(), "reservation has duplicate nodes");
  }
  reservation.id = static_cast<ReservationId>(reservations_.size()) + 1;
  ReservationId id = reservations_.emplace_back(std::move(reservation)).id;
  version_ = next_book_version();
  return id;
}

const Reservation& ReservationBook::find(ReservationId id) const {
  PS_CHECK_MSG(id >= 1 && id <= static_cast<ReservationId>(reservations_.size()),
               "unknown reservation id");
  return reservations_[static_cast<std::size_t>(id - 1)];
}

void ReservationBook::rebuild_index() const {
  for (KindIndex& ki : index_) {
    ki.by_start.clear();
    ki.active.until = ki.active.at;  // drop the memo
  }
  // Positions go in ascending, so the sort's position tie-break is id order.
  for (std::uint32_t pos = 0; pos < reservations_.size(); ++pos) {
    index_[static_cast<std::size_t>(reservations_[pos].kind)].by_start.push_back(pos);
  }
  for (KindIndex& ki : index_) {
    std::sort(ki.by_start.begin(), ki.by_start.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                if (reservations_[a].start != reservations_[b].start) {
                  return reservations_[a].start < reservations_[b].start;
                }
                return a < b;
              });
    ki.starts.clear();
    for (std::uint32_t pos : ki.by_start) ki.starts.push_back(reservations_[pos].start);
  }
  indexed_version_ = version_;
}

void ReservationBook::refill_active(ReservationKind kind, sim::Time t) const {
  KindIndex& ki = index_[static_cast<std::size_t>(kind)];
  ActiveMemo& memo = ki.active;
  memo.positions.clear();
  // The set can only change at the next start or when a member ends.
  sim::Time until = first_start_after(ki.starts, t);
  for_each_overlapping(kind, t, t + 1, [&](const Reservation& r) {
    memo.positions.push_back(static_cast<std::uint32_t>(r.id - 1));
    until = std::min(until, r.end);
  });
  memo.at = t;
  memo.until = until;
}

ReservationBook::StartRun ReservationBook::starting_in(ReservationKind kind, sim::Time from,
                                                       sim::Time to) const {
  if (indexed_version_ != version_) rebuild_index();
  const KindIndex& ki = index_[static_cast<std::size_t>(kind)];
  auto first = std::upper_bound(ki.starts.begin(), ki.starts.end(), from);
  // Every start from `first` on exceeds `from`, so to <= from yields first.
  auto last = std::lower_bound(first, ki.starts.end(), to);
  const std::uint32_t* base = ki.by_start.data();
  return StartRun(&reservations_, base + (first - ki.starts.begin()),
                  base + (last - ki.starts.begin()));
}

sim::Time ReservationBook::next_start_after(ReservationKind kind, sim::Time t) const {
  if (indexed_version_ != version_) rebuild_index();
  return first_start_after(index_[static_cast<std::size_t>(kind)].starts, t);
}

sim::Time ReservationBook::next_end_after(ReservationKind kind, sim::Time t) const {
  if (indexed_version_ != version_) rebuild_index();
  const KindIndex& ki = index_[static_cast<std::size_t>(kind)];
  sim::Time best = sim::kTimeMax;
  for (std::uint32_t pos : ki.by_start) {
    const Reservation& r = reservations_[pos];
    // An open-ended reservation (end == kTimeMax) never contributes an end
    // boundary.
    if (r.end != sim::kTimeMax && r.end > t && r.end < best) best = r.end;
  }
  return best;
}

double ReservationBook::cap_at(sim::Time t) const {
  double cap = std::numeric_limits<double>::infinity();
  for_each_active(ReservationKind::Powercap, t,
                  [&cap](const Reservation& r) { cap = std::min(cap, r.watts); });
  return cap;
}

void BlockedSet::ensure(const ReservationBook& book, sim::Time start, sim::Time horizon,
                        std::int32_t total_nodes) {
  const bool same_book = book_version_ == book.version() && bits_.size() == total_nodes;
  if (same_book && start == start_ && horizon_lo_ <= horizon && horizon < horizon_hi_) {
    return;
  }
  // blocks_job_span implies overlap, so the blocking reservations are
  // among those active at `start` and those starting in (start, horizon).
  // For horizon > start every active one blocks. Of the ones ahead, a
  // permissive SwitchOff never blocks (only starts inside its window are
  // forbidden) and a strict one blocks iff it starts before `horizon`: the
  // set stays the same for horizons past the last strict start taken, up
  // to and including the first strict start not taken.
  scratch_.clear();
  sim::Time lo = start + 1;
  sim::Time hi = sim::kTimeMax;
  for (ReservationKind kind : {ReservationKind::Maintenance, ReservationKind::SwitchOff}) {
    book.for_each_active(kind, start, [&](const Reservation& r) {
      if (r.blocks_job_span(start, horizon)) scratch_.push_back(&r);
    });
    for (const Reservation& r : book.starting_in(kind, start, sim::kTimeMax)) {
      if (r.kind == ReservationKind::SwitchOff && r.permissive) continue;
      if (r.start >= horizon) {
        hi = std::min(hi, r.start + 1);
        break;
      }
      scratch_.push_back(&r);
      lo = std::max(lo, r.start + 1);
    }
  }
  if (horizon <= start) {  // an empty span: cache this horizon alone
    lo = horizon;
    hi = horizon + 1;
  }

  std::sort(scratch_.begin(), scratch_.end(),
            [](const Reservation* a, const Reservation* b) { return a->id < b->id; });
  const bool same_ids =
      std::equal(scratch_.begin(), scratch_.end(), ids_.begin(), ids_.end(),
                 [](const Reservation* r, ReservationId id) { return r->id == id; });
  if (!same_book || !same_ids) {
    bits_.assign(total_nodes, false);
    ids_.clear();
    for (const Reservation* r : scratch_) {
      ids_.push_back(r->id);
      for (cluster::NodeId node : r->nodes) {
        if (node >= 0 && node < total_nodes) bits_.set(node);
      }
    }
  }
  book_version_ = book.version();
  start_ = start;
  horizon_lo_ = lo;
  horizon_hi_ = hi;
}

}  // namespace ps::rjms
