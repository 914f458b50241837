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

void expect_matches_book(const ReservationBook& book, sim::Time start,
                         sim::Time horizon) {
  BlockedSet set;
  set.ensure(book, start, horizon, kNodes);
  for (cluster::NodeId n = 0; n < kNodes; ++n) {
    ASSERT_EQ(set.blocked(n), scanned_node_blocked(book, n, start, horizon))
        << "node " << n << " span [" << start << ", " << horizon << ")";
  }
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
  ReservationId id = book.add(node_res(ReservationKind::Maintenance, 0, 100, {5}));
  EXPECT_NE(book.version(), v0);

  BlockedSet set;
  set.ensure(book, 0, 50, kNodes);
  EXPECT_TRUE(set.blocked(5));
  // Same span, unchanged book: cached (no way to observe directly, but the
  // answer must stay correct).
  set.ensure(book, 0, 50, kNodes);
  EXPECT_TRUE(set.blocked(5));

  EXPECT_TRUE(book.remove(id));
  set.ensure(book, 0, 50, kNodes);
  EXPECT_FALSE(set.blocked(5));
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
