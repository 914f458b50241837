#include "rjms/reservation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "reservation_reference.h"
#include "util/check.h"
#include "util/rng.h"

namespace ps::rjms {
namespace {

Reservation powercap(sim::Time start, sim::Time end, double watts) {
  Reservation r;
  r.kind = ReservationKind::Powercap;
  r.start = start;
  r.end = end;
  r.watts = watts;
  return r;
}

Reservation switch_off(sim::Time start, sim::Time end, std::vector<cluster::NodeId> nodes) {
  Reservation r;
  r.kind = ReservationKind::SwitchOff;
  r.start = start;
  r.end = end;
  r.nodes = std::move(nodes);
  return r;
}

Reservation maintenance(sim::Time start, sim::Time end, std::vector<cluster::NodeId> nodes) {
  Reservation r;
  r.kind = ReservationKind::Maintenance;
  r.start = start;
  r.end = end;
  r.nodes = std::move(nodes);
  return r;
}

/// Ids of `kind` reservations overlapping [from, to), via the query API.
std::vector<ReservationId> overlapping_ids(const ReservationBook& book,
                                           ReservationKind kind, sim::Time from,
                                           sim::Time to) {
  std::vector<ReservationId> ids;
  book.for_each_overlapping(kind, from, to,
                            [&ids](const Reservation& r) { ids.push_back(r.id); });
  return ids;
}

/// Reference answer from a brute-force scan over all().
std::vector<ReservationId> brute_force_ids(const ReservationBook& book,
                                           ReservationKind kind, sim::Time from,
                                           sim::Time to) {
  std::vector<ReservationId> ids;
  for (const Reservation& r : book.all()) {
    if (r.kind == kind && r.overlaps(from, to)) ids.push_back(r.id);
  }
  return ids;
}

/// Whether `node` is blocked for a job spanning [from, to), asked the way
/// node selection asks: through a freshly built BlockedSet.
bool set_blocks(const ReservationBook& book, cluster::NodeId node, sim::Time from,
                sim::Time to) {
  BlockedSet set;
  set.ensure(book, from, to, node + 1);
  return set.blocked(node);
}

// Minimum powercap anywhere in [from, to); +infinity when none.
double min_cap_over(const ReservationBook& book, sim::Time from, sim::Time to) {
  double cap = std::numeric_limits<double>::infinity();
  book.for_each_overlapping(ReservationKind::Powercap, from, to,
                            [&cap](const Reservation& r) { cap = std::min(cap, r.watts); });
  return cap;
}

TEST(Reservation, OverlapSemantics) {
  Reservation r = powercap(100, 200, 1000.0);
  EXPECT_TRUE(r.overlaps(150, 160));
  EXPECT_TRUE(r.overlaps(50, 101));
  EXPECT_TRUE(r.overlaps(199, 300));
  EXPECT_FALSE(r.overlaps(200, 300));  // end-exclusive
  EXPECT_FALSE(r.overlaps(0, 100));    // start-exclusive on the right
  EXPECT_TRUE(r.active_at(100));
  EXPECT_TRUE(r.active_at(199));
  EXPECT_FALSE(r.active_at(200));
}

TEST(ReservationBook, AssignsIncreasingIds) {
  ReservationBook book;
  ReservationId a = book.add(powercap(0, 10, 1.0));
  ReservationId b = book.add(powercap(0, 10, 2.0));
  EXPECT_LT(a, b);
  EXPECT_EQ(book.all().size(), 2u);
}

TEST(ReservationBook, ReferencesOutliveLaterAdds) {
  // A caller may hold a reservation across adds (the controller's
  // switch-off handlers, the governor's window walk): find() and all() hand
  // out addresses that no later add moves.
  ReservationBook book;
  ReservationId id = book.add(switch_off(100, 200, {7, 3, 5}));
  const Reservation* held = &book.find(id);
  const Reservation* first = &*book.all().begin();
  for (std::int64_t i = 0; i < 1000; ++i) {
    if (i % 2 == 0) {
      book.add(powercap(i, i + 50, 1000.0 + static_cast<double>(i)));
    } else {
      book.add(maintenance(i, i + 10, {static_cast<cluster::NodeId>(i % 64)}));
    }
  }
  ASSERT_EQ(book.all().size(), 1001u);
  EXPECT_EQ(&book.find(id), held);
  EXPECT_EQ(&*book.all().begin(), first);
  EXPECT_EQ(held->id, id);
  EXPECT_EQ(held->kind, ReservationKind::SwitchOff);
  EXPECT_EQ(held->start, 100);
  EXPECT_EQ(held->end, 200);
  EXPECT_EQ(held->nodes, (std::vector<cluster::NodeId>{3, 5, 7}));
  EXPECT_EQ(book.find(1001).kind, ReservationKind::Maintenance);
}

TEST(ReservationBook, FindByIdRejectsUnknownIds) {
  ReservationBook book;
  ReservationId cap = book.add(powercap(0, 10, 1.0));
  ReservationId id = book.add(switch_off(0, 10, {1, 2, 3}));
  EXPECT_EQ(book.find(id).nodes.size(), 3u);
  EXPECT_EQ(book.find(cap).watts, 1.0);
  EXPECT_THROW((void)book.find(0), CheckError);
  EXPECT_THROW((void)book.find(id + 1), CheckError);
}

TEST(ReservationBook, NodeBlockedDuringWindow) {
  ReservationBook book;
  book.add(switch_off(100, 200, {5, 6, 7}));
  EXPECT_TRUE(set_blocks(book, 5, 150, 160));
  EXPECT_TRUE(set_blocks(book, 5, 0, 101));
  EXPECT_FALSE(set_blocks(book, 5, 200, 300));
  EXPECT_FALSE(set_blocks(book, 4, 150, 160));
  // Powercap reservations never block nodes.
  book.add(powercap(0, 1000, 1.0));
  EXPECT_FALSE(set_blocks(book, 4, 0, 1000));
}

TEST(ReservationBook, NodesSortedAndDeduplicated) {
  ReservationBook book;
  ReservationId id = book.add(switch_off(0, 10, {9, 3, 7}));
  EXPECT_EQ(book.find(id).nodes, (std::vector<cluster::NodeId>{3, 7, 9}));
  EXPECT_THROW((void)book.add(switch_off(0, 10, {1, 1})), CheckError);
}

TEST(ReservationBook, CapAtPicksMinimumOfActiveCaps) {
  ReservationBook book;
  book.add(powercap(0, 100, 500.0));
  book.add(powercap(50, 150, 300.0));
  EXPECT_DOUBLE_EQ(book.cap_at(25), 500.0);
  EXPECT_DOUBLE_EQ(book.cap_at(75), 300.0);
  EXPECT_DOUBLE_EQ(book.cap_at(120), 300.0);
  EXPECT_TRUE(std::isinf(book.cap_at(200)));
}

TEST(ReservationBook, MinCapOverWindow) {
  ReservationBook book;
  book.add(powercap(100, 200, 800.0));
  EXPECT_DOUBLE_EQ(min_cap_over(book, 0, 150), 800.0);
  EXPECT_TRUE(std::isinf(min_cap_over(book, 0, 100)));
  EXPECT_TRUE(std::isinf(min_cap_over(book, 200, 300)));
}

TEST(ReservationBook, OverlapQueriesFilterByKind) {
  ReservationBook book;
  book.add(powercap(0, 100, 1.0));
  book.add(switch_off(0, 100, {1}));
  book.add(switch_off(200, 300, {2}));
  EXPECT_EQ(overlapping_ids(book, ReservationKind::Powercap, 0, 1000).size(), 1u);
  EXPECT_EQ(overlapping_ids(book, ReservationKind::SwitchOff, 0, 1000).size(), 2u);
  EXPECT_EQ(overlapping_ids(book, ReservationKind::SwitchOff, 150, 180).size(), 0u);
  for (ReservationKind kind : {ReservationKind::Powercap, ReservationKind::SwitchOff}) {
    for (auto [from, to] : std::vector<std::pair<sim::Time, sim::Time>>{
             {0, 1000}, {150, 180}, {50, 250}}) {
      EXPECT_EQ(overlapping_ids(book, kind, from, to), brute_force_ids(book, kind, from, to));
    }
  }
}

TEST(ReservationBook, OpenEndedPowercap) {
  ReservationBook book;
  book.add(powercap(50, sim::kTimeMax, 700.0));
  EXPECT_DOUBLE_EQ(book.cap_at(1'000'000'000), 700.0);
  EXPECT_TRUE(std::isinf(book.cap_at(0)));
}

TEST(ReservationBook, ValidationRejectsBadInput) {
  ReservationBook book;
  EXPECT_THROW((void)book.add(powercap(10, 10, 1.0)), CheckError);   // empty window
  EXPECT_THROW((void)book.add(powercap(10, 5, 1.0)), CheckError);    // inverted
  EXPECT_THROW((void)book.add(powercap(0, 10, 0.0)), CheckError);    // zero watts
  EXPECT_THROW((void)book.add(switch_off(0, 10, {})), CheckError);   // no nodes
}

// --- interval index -----------------------------------------------------------

TEST(ReservationBook, IntervalIndexMatchesBruteForceInIdOrder) {
  ReservationBook book;
  // 64 windows per kind in a deterministic staggered layout producing
  // plenty of partial overlaps.
  for (int i = 0; i < 64; ++i) {
    sim::Time start = (i * 37) % 500;
    book.add(maintenance(start, start + 20 + (i % 7) * 40, {i}));
    book.add(powercap(((i * 53) % 400) + 1000, ((i * 53) % 400) + 1100, 500.0 + i));
  }
  for (sim::Time from = 0; from < 800; from += 35) {
    for (sim::Duration span : {1, 10, 150, 600}) {
      auto got = overlapping_ids(book, ReservationKind::Maintenance, from, from + span);
      auto want = brute_force_ids(book, ReservationKind::Maintenance, from, from + span);
      EXPECT_EQ(got, want) << "maintenance [" << from << ", " << from + span << ")";
      auto got_caps = overlapping_ids(book, ReservationKind::Powercap, from, from + span);
      auto want_caps = brute_force_ids(book, ReservationKind::Powercap, from, from + span);
      EXPECT_EQ(got_caps, want_caps) << "powercap [" << from << ", " << from + span << ")";
    }
  }
}

TEST(ReservationBook, IntervalIndexTracksAdds) {
  ReservationBook book;
  for (int i = 0; i < 40; ++i) book.add(maintenance(i * 10, i * 10 + 25, {i}));
  EXPECT_EQ(overlapping_ids(book, ReservationKind::Maintenance, 0, 1000).size(), 40u);
  // Add between queries, out of start order: the rebuilt index must show
  // the new ones.
  for (int i = 0; i < 20; ++i) book.add(maintenance(995 - i * 50, 1000 - i * 50, {50 + i}));
  auto got = overlapping_ids(book, ReservationKind::Maintenance, 0, 1000);
  EXPECT_EQ(got, brute_force_ids(book, ReservationKind::Maintenance, 0, 1000));
  EXPECT_EQ(got.size(), 60u);
  // New ids keep ascending and show up.
  ReservationId fresh = book.add(maintenance(5000, 5100, {99}));
  EXPECT_EQ(overlapping_ids(book, ReservationKind::Maintenance, 5000, 5001),
            std::vector<ReservationId>{fresh});
}

TEST(ReservationBook, NestedQueriesDoNotClobberEachOther) {
  ReservationBook book;
  for (int i = 0; i < 32; ++i) {
    book.add(maintenance(i * 10, i * 10 + 15, {i}));
    book.add(switch_off(i * 10, i * 10 + 15, {100 + i}));
  }
  // The admission path issues a SwitchOff query from inside a Powercap/
  // Maintenance callback; both iterations must stay intact.
  std::size_t outer = 0, inner = 0;
  book.for_each_overlapping(ReservationKind::Maintenance, 0, 400,
                            [&](const Reservation&) {
                              ++outer;
                              book.for_each_overlapping(
                                  ReservationKind::SwitchOff, 0, 400,
                                  [&inner](const Reservation&) { ++inner; });
                            });
  EXPECT_EQ(outer, brute_force_ids(book, ReservationKind::Maintenance, 0, 400).size());
  EXPECT_EQ(inner, outer * brute_force_ids(book, ReservationKind::SwitchOff, 0, 400).size());
}

TEST(ReservationBook, IndexedNodeBlockedAndCapsMatchSemantics) {
  ReservationBook book;
  for (int i = 0; i < 32; ++i) {
    book.add(maintenance(i * 100, i * 100 + 50, {i}));
    book.add(powercap(i * 100, i * 100 + 50, 1000.0 + i));
  }
  // Spot-check blocking and cap_at against the reservation definitions.
  EXPECT_TRUE(set_blocks(book, 3, 310, 320));
  EXPECT_FALSE(set_blocks(book, 3, 360, 380));   // window over
  EXPECT_FALSE(set_blocks(book, 4, 310, 320));   // other node's window
  EXPECT_DOUBLE_EQ(book.cap_at(310), 1003.0);
  EXPECT_TRUE(std::isinf(book.cap_at(360)));
  EXPECT_DOUBLE_EQ(min_cap_over(book, 0, 320), 1000.0);
}

// --- the memo of the set active at `now` ----------------------------------------

constexpr ReservationKind kKinds[] = {ReservationKind::Maintenance,
                                      ReservationKind::SwitchOff, ReservationKind::Powercap};

std::vector<ReservationId> active_ids(const ReservationBook& book, ReservationKind kind,
                                      sim::Time t) {
  std::vector<ReservationId> ids;
  book.for_each_active(kind, t, [&ids](const Reservation& r) { ids.push_back(r.id); });
  return ids;
}

std::vector<ReservationId> scanned_active_ids(const ReservationBook& book,
                                              ReservationKind kind, sim::Time t) {
  std::vector<ReservationId> ids;
  for (const Reservation& r : book.all()) {
    if (r.kind == kind && r.active_at(t)) ids.push_back(r.id);
  }
  return ids;
}

std::vector<ReservationId> starting_ids(const ReservationBook& book, ReservationKind kind,
                                        sim::Time from, sim::Time to) {
  std::vector<ReservationId> ids;
  for (const Reservation& r : book.starting_in(kind, from, to)) ids.push_back(r.id);
  return ids;
}

/// from < start < to, in (start, id) order.
std::vector<ReservationId> scanned_starting_ids(const ReservationBook& book,
                                                ReservationKind kind, sim::Time from,
                                                sim::Time to) {
  std::vector<const Reservation*> run;
  for (const Reservation& r : book.all()) {
    if (r.kind == kind && from < r.start && r.start < to) run.push_back(&r);
  }
  std::stable_sort(run.begin(), run.end(), [](const Reservation* a, const Reservation* b) {
    return a->start < b->start;
  });
  std::vector<ReservationId> ids;
  for (const Reservation* r : run) ids.push_back(r->id);
  return ids;
}

double scanned_cap_at(const ReservationBook& book, sim::Time t) {
  double cap = std::numeric_limits<double>::infinity();
  for (const Reservation& r : book.all()) {
    if (r.kind == ReservationKind::Powercap && r.active_at(t)) cap = std::min(cap, r.watts);
  }
  return cap;
}

constexpr cluster::NodeId kMemoNodes = 6;

/// A random reservation on a coarse 25-unit grid, so starts tie and windows
/// end exactly where others start; a fifth are open-ended.
Reservation random_reservation(util::Rng& rng) {
  Reservation r;
  r.kind = kKinds[rng.uniform_int(0, 2)];
  r.start = 25 * rng.uniform_int(0, 40);
  r.end = rng.chance(0.2) ? sim::kTimeMax : r.start + 25 * rng.uniform_int(1, 12);
  if (r.kind == ReservationKind::Powercap) {
    r.watts = static_cast<double>(rng.uniform_int(1, 50));
  } else {
    for (cluster::NodeId n = 0; n < kMemoNodes; ++n) {
      if (rng.chance(0.3)) r.nodes.push_back(n);
    }
    if (r.nodes.empty()) r.nodes.push_back(static_cast<cluster::NodeId>(rng.uniform_int(0, 5)));
    r.permissive = r.kind == ReservationKind::SwitchOff && rng.chance(0.5);
  }
  return r;
}

/// Every `now` query at `t` against the brute-force scan. `blocked` lives
/// across calls, so its rebuilds are keyed on the book version and span.
void expect_now_queries_match(const ReservationBook& book, BlockedSet& blocked,
                              util::Rng& rng, sim::Time t) {
  for (ReservationKind kind : kKinds) {
    ASSERT_EQ(active_ids(book, kind, t), scanned_active_ids(book, kind, t))
        << "kind " << static_cast<int>(kind) << " at " << t;
    sim::Time to = t + 25 * rng.uniform_int(-2, 12) + rng.uniform_int(-1, 1);
    ASSERT_EQ(starting_ids(book, kind, t, to), scanned_starting_ids(book, kind, t, to))
        << "kind " << static_cast<int>(kind) << " (" << t << ", " << to << ")";
    std::vector<ReservationId> got;
    book.for_each_overlapping(kind, t, to, [&got](const Reservation& r) { got.push_back(r.id); });
    ASSERT_EQ(got, brute_force_ids(book, kind, t, to))
        << "kind " << static_cast<int>(kind) << " [" << t << ", " << to << ")";
  }
  double cap = book.cap_at(t);
  double want = scanned_cap_at(book, t);
  ASSERT_TRUE(cap == want) << "cap_at(" << t << ") " << cap << " vs " << want;
  // A job span is never empty: it ends 1 to ~300 past `t`, often exactly
  // on a grid boundary.
  sim::Time horizon =
      t + std::max<sim::Time>(1, 25 * rng.uniform_int(0, 12) + rng.uniform_int(-1, 1));
  blocked.ensure(book, t, horizon, kMemoNodes);
  for (cluster::NodeId n = 0; n < kMemoNodes; ++n) {
    ASSERT_EQ(blocked.blocked(n), scanned_node_blocked(book, n, t, horizon))
        << "node " << n << " span [" << t << ", " << horizon << ")";
  }
}

TEST(ReservationBook, ActiveMemoMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    ReservationBook book;
    BlockedSet blocked;
    for (int i = 0; i < 30; ++i) book.add(random_reservation(rng));
    sim::Time t = 0;
    for (int step = 0; step < 300; ++step) {
      switch (rng.uniform_int(0, 5)) {
        case 0:  // repeat
          break;
        case 1:
        case 2:  // advance, often inside the memo's validity interval
          t += rng.uniform_int(0, 30);
          break;
        case 3: {  // land exactly on a boundary
          const Reservation& r =
              book.all()[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(book.all().size()) - 1))];
          t = r.end != sim::kTimeMax && rng.chance(0.5) ? r.end : r.start;
          break;
        }
        case 4:  // jump backwards
          t = std::max<sim::Time>(0, t - rng.uniform_int(1, 300));
          break;
        default:  // grow the book between queries
          book.add(random_reservation(rng));
          break;
      }
      expect_now_queries_match(book, blocked, rng, t);
    }
  }
}

TEST(ReservationBook, ActiveQueriesNestAcrossInstants) {
  util::Rng rng(7);
  ReservationBook book;
  for (int i = 0; i < 40; ++i) book.add(random_reservation(rng));
  for (sim::Time t = 0; t < 1100; t += 25) {
    for (ReservationKind kind : kKinds) {
      std::vector<ReservationId> outer;
      book.for_each_active(kind, t, [&](const Reservation& r) {
        outer.push_back(r.id);
        // Same kind, another instant: answered exactly, and the outer walk
        // must survive it.
        sim::Time other = t + 13 + 25 * static_cast<sim::Time>(outer.size());
        ASSERT_EQ(active_ids(book, kind, other), scanned_active_ids(book, kind, other));
      });
      EXPECT_EQ(outer, scanned_active_ids(book, kind, t)) << "at " << t;
    }
  }
}

}  // namespace
}  // namespace ps::rjms
