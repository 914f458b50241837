#include "rjms/reservation.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace ps::rjms {

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
  reservation.id = next_id_++;
  reservations_.push_back(std::move(reservation));
  ++version_;
  return reservations_.back().id;
}

bool ReservationBook::remove(ReservationId id) {
  // Ids are assigned monotonically and erase keeps relative order, so the
  // book is always sorted by id.
  auto it = std::lower_bound(
      reservations_.begin(), reservations_.end(), id,
      [](const Reservation& r, ReservationId target) { return r.id < target; });
  if (it == reservations_.end() || it->id != id) return false;
  reservations_.erase(it);
  ++version_;
  return true;
}

const Reservation* ReservationBook::find(ReservationId id) const {
  auto it = std::lower_bound(
      reservations_.begin(), reservations_.end(), id,
      [](const Reservation& r, ReservationId target) { return r.id < target; });
  return it == reservations_.end() || it->id != id ? nullptr : &*it;
}

void ReservationBook::rebuild_index() const {
  for (KindIndex& ki : index_) {
    ki.members.clear();
    ki.by_start.clear();
    ki.tree.clear();
    ki.leaf_count = 0;
  }
  for (std::uint32_t pos = 0; pos < reservations_.size(); ++pos) {
    index_[static_cast<std::size_t>(reservations_[pos].kind)].members.push_back(pos);
  }
  for (KindIndex& ki : index_) {
    if (ki.members.size() <= kLinearScanMax) continue;  // linear path, no tree
    ki.by_start = ki.members;
    std::sort(ki.by_start.begin(), ki.by_start.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                if (reservations_[a].start != reservations_[b].start) {
                  return reservations_[a].start < reservations_[b].start;
                }
                return a < b;
              });
    std::size_t cap = 1;
    while (cap < ki.by_start.size()) cap *= 2;
    ki.leaf_count = cap;
    ki.tree.assign(2 * cap, std::numeric_limits<sim::Time>::min());
    for (std::size_t i = 0; i < ki.by_start.size(); ++i) {
      ki.tree[cap + i] = reservations_[ki.by_start[i]].end;
    }
    for (std::size_t i = cap - 1; i >= 1; --i) {
      ki.tree[i] = std::max(ki.tree[2 * i], ki.tree[2 * i + 1]);
    }
  }
  indexed_version_ = version_;
}

void ReservationBook::collect_overlapping(const KindIndex& ki, std::size_t node,
                                          std::size_t lo, std::size_t len,
                                          sim::Time from, sim::Time to,
                                          std::vector<std::uint32_t>& out) const {
  if (lo >= ki.by_start.size()) return;            // padding subtree
  if (ki.tree[node] <= from) return;               // max end <= from: no overlap below
  if (reservations_[ki.by_start[lo]].start >= to) return;  // min start >= to
  if (len == 1) {
    // Leaf: end > from (pruned above) and start < to (pruned above) hold
    // exactly, so this entry overlaps [from, to).
    out.push_back(ki.by_start[lo]);
    return;
  }
  collect_overlapping(ki, 2 * node, lo, len / 2, from, to, out);
  collect_overlapping(ki, 2 * node + 1, lo + len / 2, len / 2, from, to, out);
}

bool ReservationBook::node_blocked(cluster::NodeId node, sim::Time from, sim::Time to) const {
  // This runs per node probe on the selectors' no-BlockedSet fallback path;
  // the empty book (no governor, no reservations) must stay one branch.
  if (reservations_.empty()) return false;
  bool blocked = false;
  auto check = [&](const Reservation& r) {
    if (blocked || !r.blocks_job_span(from, to)) return;
    blocked = std::binary_search(r.nodes.begin(), r.nodes.end(), node);
  };
  // blocks_job_span implies overlaps(from, to) for node kinds, so the
  // interval query never misses a blocking reservation.
  for_each_overlapping(ReservationKind::Maintenance, from, to, check);
  if (!blocked) for_each_overlapping(ReservationKind::SwitchOff, from, to, check);
  return blocked;
}

std::vector<const Reservation*> ReservationBook::powercaps_overlapping(sim::Time from,
                                                                       sim::Time to) const {
  std::vector<const Reservation*> out;
  for_each_overlapping(ReservationKind::Powercap, from, to,
                       [&out](const Reservation& r) { out.push_back(&r); });
  return out;
}

std::vector<const Reservation*> ReservationBook::switchoffs_overlapping(sim::Time from,
                                                                        sim::Time to) const {
  std::vector<const Reservation*> out;
  for_each_overlapping(ReservationKind::SwitchOff, from, to,
                       [&out](const Reservation& r) { out.push_back(&r); });
  return out;
}

sim::Time ReservationBook::next_start_after(ReservationKind kind, sim::Time t) const {
  if (indexed_version_ != version_) rebuild_index();
  const KindIndex& ki = index_[static_cast<std::size_t>(kind)];
  sim::Time best = sim::kTimeMax;
  for (std::uint32_t pos : ki.members) {
    const Reservation& r = reservations_[pos];
    if (r.start > t && r.start < best) best = r.start;
  }
  return best;
}

sim::Time ReservationBook::next_end_after(ReservationKind kind, sim::Time t) const {
  if (indexed_version_ != version_) rebuild_index();
  const KindIndex& ki = index_[static_cast<std::size_t>(kind)];
  sim::Time best = sim::kTimeMax;
  for (std::uint32_t pos : ki.members) {
    const Reservation& r = reservations_[pos];
    // An open-ended reservation (end == kTimeMax) never contributes an end
    // boundary.
    if (r.end != sim::kTimeMax && r.end > t && r.end < best) best = r.end;
  }
  return best;
}

double ReservationBook::cap_at(sim::Time t) const {
  double cap = std::numeric_limits<double>::infinity();
  for_each_overlapping(ReservationKind::Powercap, t, t + 1,
                       [&cap](const Reservation& r) { cap = std::min(cap, r.watts); });
  return cap;
}

void BlockedSet::ensure(const ReservationBook& book, sim::Time start, sim::Time horizon,
                        std::int32_t total_nodes) {
  auto nodes = static_cast<std::size_t>(total_nodes);
  if (book_version_ == book.version() && start_ == start && horizon_ == horizon &&
      stamps_.size() == nodes) {
    return;
  }
  if (stamps_.size() != nodes) {
    stamps_.assign(nodes, 0);
    epoch_ = 0;
  }
  ++epoch_;
  // ReservationBook::node_blocked vectorized over nodes, sharing its
  // blocking predicate; the interval query bounds the work to reservations
  // overlapping [start, horizon) (blocks_job_span implies overlap).
  auto stamp = [&](const Reservation& r) {
    if (!r.blocks_job_span(start, horizon)) return;
    for (cluster::NodeId node : r.nodes) {
      auto i = static_cast<std::size_t>(node);
      if (i < stamps_.size()) stamps_[i] = epoch_;
    }
  };
  book.for_each_overlapping(ReservationKind::Maintenance, start, horizon, stamp);
  book.for_each_overlapping(ReservationKind::SwitchOff, start, horizon, stamp);
  book_version_ = book.version();
  start_ = start;
  horizon_ = horizon;
}

}  // namespace ps::rjms
