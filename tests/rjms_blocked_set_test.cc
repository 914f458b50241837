// Pass-scoped BlockedSet: must agree with the reference scan over the book
// (tests/reservation_reference.h) for every node and span, including
// permissive switch-off semantics, and must observe book mutations through
// the version counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "reservation_reference.h"
#include "rjms/reservation.h"
#include "util/rng.h"

namespace ps::rjms {
namespace {

constexpr std::int32_t kNodes = 360;

Reservation node_res(ReservationKind kind, sim::Time start, sim::Time end,
                     std::vector<cluster::NodeId> nodes, bool permissive = false) {
  Reservation r;
  r.kind = kind;
  r.start = start;
  r.end = end;
  r.nodes = std::move(nodes);
  r.permissive = permissive;
  return r;
}

/// `set` (already ensured for the span) against the reference scan, node
/// by node and window by window.
void expect_set_matches(const BlockedSet& set, const ReservationBook& book,
                        sim::Time start, sim::Time horizon) {
  std::uint64_t window = 0;
  for (cluster::NodeId n = 0; n < kNodes; ++n) {
    const bool expected = scanned_node_blocked(book, n, start, horizon);
    ASSERT_EQ(set.blocked(n), expected)
        << "node " << n << " span [" << start << ", " << horizon << ")";
    if (expected) window |= 1ULL << (n % 64);
    if (n % 64 == 63 || n + 1 == kNodes) {
      const cluster::NodeId first = n - n % 64;
      ASSERT_EQ(set.window(first, n - first + 1), window) << "window at " << first;
      window = 0;
    }
  }
}

void expect_matches_book(const ReservationBook& book, sim::Time start,
                         sim::Time horizon) {
  BlockedSet set;
  set.ensure(book, start, horizon, kNodes);
  expect_set_matches(set, book, start, horizon);
}

TEST(BlockedSet, MatchesNodeBlockedForAllKinds) {
  ReservationBook book;
  book.add(node_res(ReservationKind::Maintenance, 100, 200, {1, 2, 3}));
  book.add(node_res(ReservationKind::SwitchOff, 300, 400, {10, 11}));
  book.add(node_res(ReservationKind::SwitchOff, 500, 600, {20, 21}, true));
  {
    Reservation cap;
    cap.kind = ReservationKind::Powercap;
    cap.start = 0;
    cap.end = 1000;
    cap.watts = 100.0;
    book.add(std::move(cap));  // powercaps never block nodes
  }
  for (auto [start, horizon] : std::vector<std::pair<sim::Time, sim::Time>>{
           {0, 50}, {0, 150}, {150, 250}, {250, 450}, {350, 360},
           {450, 550}, {520, 530}, {0, 1000}, {600, 700}}) {
    expect_matches_book(book, start, horizon);
  }
}

TEST(BlockedSet, PermissiveBlocksOnlyStartsInsideWindow) {
  ReservationBook book;
  book.add(node_res(ReservationKind::SwitchOff, 500, 600, {7}, true));
  BlockedSet set;
  // Job span overlaps the window but starts before it: permitted.
  set.ensure(book, 400, 700, kNodes);
  EXPECT_FALSE(set.blocked(7));
  // Job starts inside the window: forbidden.
  set.ensure(book, 550, 560, kNodes);
  EXPECT_TRUE(set.blocked(7));
}

TEST(BlockedSet, SeesBookMutationsViaVersion) {
  ReservationBook book;
  std::uint64_t v0 = book.version();
  book.add(node_res(ReservationKind::Maintenance, 0, 100, {5}));
  EXPECT_NE(book.version(), v0);

  BlockedSet set;
  set.ensure(book, 0, 50, kNodes);
  EXPECT_TRUE(set.blocked(5));
  // Same span, unchanged book: cached (no way to observe directly, but the
  // answer must stay correct).
  set.ensure(book, 0, 50, kNodes);
  EXPECT_TRUE(set.blocked(5));

  std::uint64_t v1 = book.version();
  book.add(node_res(ReservationKind::Maintenance, 40, 100, {6}));
  EXPECT_NE(book.version(), v1);
  set.ensure(book, 0, 50, kNodes);
  EXPECT_TRUE(set.blocked(5));
  EXPECT_TRUE(set.blocked(6));
}

TEST(BlockedSet, OneSetServesBooksWithTheSameHistory) {
  // Two books built by the same sequence of adds give out the same ids; only
  // the node lists differ. A set ensured against each in turn must answer for
  // the book it is handed, even for the same span.
  std::vector<ReservationBook> books(2);
  for (std::size_t b = 0; b < books.size(); ++b) {
    const cluster::NodeId base = static_cast<cluster::NodeId>(100 * b);
    books[b].add(node_res(ReservationKind::Maintenance, 0, 100, {base + 1, base + 2}));
    books[b].add(node_res(ReservationKind::SwitchOff, 50, 150, {base + 30}));
  }
  BlockedSet set;
  for (int round = 0; round < 2; ++round) {
    for (const ReservationBook& book : books) {
      set.ensure(book, 10, 80, kNodes);
      expect_set_matches(set, book, 10, 80);
      ASSERT_FALSE(HasFatalFailure());
    }
  }
}

TEST(BlockedSet, RebuildsWhenSpanChanges) {
  ReservationBook book;
  book.add(node_res(ReservationKind::Maintenance, 100, 200, {9}));
  BlockedSet set;
  set.ensure(book, 0, 50, kNodes);
  EXPECT_FALSE(set.blocked(9));
  set.ensure(book, 0, 150, kNodes);
  EXPECT_TRUE(set.blocked(9));
  set.ensure(book, 200, 300, kNodes);
  EXPECT_FALSE(set.blocked(9));
}

TEST(BlockedSet, PropertyMatchesBookUnderRandomReservations) {
  util::Rng rng(777);
  for (int trial = 0; trial < 50; ++trial) {
    ReservationBook book;
    int count = static_cast<int>(rng.uniform_int(1, 6));
    for (int r = 0; r < count; ++r) {
      sim::Time start = rng.uniform_int(0, 900);
      sim::Time end = start + rng.uniform_int(1, 400);
      std::vector<cluster::NodeId> nodes;
      int width = static_cast<int>(rng.uniform_int(1, 40));
      for (int i = 0; i < width; ++i) {
        nodes.push_back(static_cast<cluster::NodeId>(rng.uniform_int(0, kNodes - 1)));
      }
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      bool switch_off = rng.chance(0.5);
      book.add(node_res(switch_off ? ReservationKind::SwitchOff
                                   : ReservationKind::Maintenance,
                        start, end, std::move(nodes),
                        switch_off && rng.chance(0.5)));
    }
    for (int probe = 0; probe < 8; ++probe) {
      sim::Time start = rng.uniform_int(0, 1200);
      sim::Time horizon = start + rng.uniform_int(1, 500);
      expect_matches_book(book, start, horizon);
    }
  }
}

Reservation random_node_res(util::Rng& rng, sim::Time now) {
  sim::Time start = now + rng.uniform_int(-200, 600);
  sim::Time end = start + rng.uniform_int(1, 400);
  std::vector<cluster::NodeId> nodes;
  auto first = static_cast<cluster::NodeId>(rng.uniform_int(0, kNodes - 1));
  auto width = static_cast<cluster::NodeId>(rng.uniform_int(1, 80));
  for (cluster::NodeId n = first; n < std::min(kNodes, first + width); ++n) {
    if (rng.chance(0.7)) nodes.push_back(n);
  }
  if (nodes.empty()) nodes.push_back(first);
  bool switch_off = rng.chance(0.5);
  return node_res(switch_off ? ReservationKind::SwitchOff : ReservationKind::Maintenance,
                  start, end, std::move(nodes), switch_off && rng.chance(0.5));
}

// One set reused the way plan_start reuses it: many horizons per `now`, a
// clock moving forward, reservations added in between. Every
// answer must equal the reference scan, whichever of the set's shortcuts
// (a horizon inside the cached interval, the same blocking ids after a
// walk) produced it.
TEST(BlockedSet, ReusedSetMatchesBookAcrossSpansAndAdds) {
  util::Rng rng(4242);
  ReservationBook book;
  BlockedSet set;
  sim::Time now = 0;
  for (int step = 0; step < 600; ++step) {
    const double op = rng.uniform(0, 1);
    if (op < 0.12) {
      book.add(random_node_res(rng, now));
    } else if (op < 0.4) {
      now += rng.uniform_int(0, 60);
    }
    for (int probe = 0; probe < 4; ++probe) {
      sim::Time horizon = now + rng.uniform_int(0, 500);
      set.ensure(book, now, horizon, kNodes);
      expect_set_matches(set, book, now, horizon);
    }
  }
}

TEST(BlockedSet, VersionBumpWithSameBlockingIdsStaysExact) {
  ReservationBook book;
  book.add(node_res(ReservationKind::SwitchOff, 100, 300, {60, 61, 62, 63, 64, 65}));
  book.add(node_res(ReservationKind::Maintenance, 0, 200, {5}));
  BlockedSet set;
  set.ensure(book, 50, 150, kNodes);
  expect_set_matches(set, book, 50, 150);

  // A permissive window ahead and a powercap bump the version but block
  // nothing for this span: same blocking ids, new version.
  book.add(node_res(ReservationKind::SwitchOff, 120, 400, {7}, true));
  {
    Reservation cap;
    cap.kind = ReservationKind::Powercap;
    cap.start = 0;
    cap.end = 1000;
    cap.watts = 10.0;
    book.add(std::move(cap));
  }
  set.ensure(book, 50, 150, kNodes);
  expect_set_matches(set, book, 50, 150);
  set.ensure(book, 50, 120, kNodes);  // inside the cached horizon interval
  expect_set_matches(set, book, 50, 120);
  set.ensure(book, 50, 100, kNodes);  // the strict window no longer overlaps
  expect_set_matches(set, book, 50, 100);
  set.ensure(book, 50, 101, kNodes);  // first horizon that overlaps it again
  expect_set_matches(set, book, 50, 101);

  // Another non-blocking reservation bumps the version again.
  book.add(node_res(ReservationKind::SwitchOff, 160, 400, {8}, true));
  set.ensure(book, 50, 150, kNodes);
  expect_set_matches(set, book, 50, 150);
  // The permissive window's start is inside the span at a later `now`.
  set.ensure(book, 130, 150, kNodes);
  expect_set_matches(set, book, 130, 150);
  // A strict window blocking the span joins the set.
  book.add(node_res(ReservationKind::Maintenance, 140, 200, {9}));
  set.ensure(book, 130, 150, kNodes);
  expect_set_matches(set, book, 130, 150);
}

TEST(BlockedSet, ForEachOverlappingMatchesBookScan) {
  ReservationBook book;
  book.add(node_res(ReservationKind::SwitchOff, 0, 100, {1}));
  book.add(node_res(ReservationKind::SwitchOff, 200, 300, {2}));
  book.add(node_res(ReservationKind::Maintenance, 0, 1000, {3}));
  {
    Reservation cap;
    cap.kind = ReservationKind::Powercap;
    cap.start = 50;
    cap.end = 250;
    cap.watts = 10.0;
    book.add(std::move(cap));
  }
  for (auto [from, to] : std::vector<std::pair<sim::Time, sim::Time>>{
           {0, 1000}, {150, 180}, {90, 210}, {300, 400}}) {
    for (ReservationKind kind :
         {ReservationKind::SwitchOff, ReservationKind::Powercap}) {
      std::vector<const Reservation*> via_fn;
      book.for_each_overlapping(kind, from, to,
                                [&via_fn](const Reservation& r) { via_fn.push_back(&r); });
      std::vector<const Reservation*> via_scan;
      for (const Reservation& r : book.all()) {
        if (r.kind == kind && r.overlaps(from, to)) via_scan.push_back(&r);
      }
      EXPECT_EQ(via_fn, via_scan);
    }
  }
}

}  // namespace
}  // namespace ps::rjms
