#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "util/check.h"

namespace ps::sim {
namespace {

/// The queue never calls its handlers; tests only compare their addresses.
struct Inert final : EventHandler {
  void on_event(const Event&) override {}
};

/// Pops everything, returning each event's arg in pop order.
std::vector<std::int64_t> drain_args(EventQueue& q) {
  std::vector<std::int64_t> args;
  while (!q.empty()) args.push_back(q.pop().arg);
  return args;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  Inert h;
  q.push(30, EventBand::kNormal, h, 0, 3);
  q.push(10, EventBand::kNormal, h, 0, 1);
  q.push(20, EventBand::kNormal, h, 0, 2);
  EXPECT_EQ(drain_args(q), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue q;
  Inert h;
  for (std::int64_t i = 0; i < 10; ++i) q.push(5, EventBand::kNormal, h, 0, i);
  std::vector<std::int64_t> expected(10);
  for (std::int64_t i = 0; i < 10; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(drain_args(q), expected);
}

TEST(EventQueue, PopReturnsThePushedEvent) {
  EventQueue q;
  Inert a;
  Inert b;
  const EventId first = q.push(7, EventBand::kSubmit, a, 200, -5);
  const EventId second = q.push(-3, EventBand::kSetup, b, 0, INT64_MAX);
  EXPECT_NE(first, kInvalidEventId);
  EXPECT_EQ(second, first + 1);
  EXPECT_EQ(q.pushed_count(), 2u);

  const Event early = q.pop();
  EXPECT_EQ(early.time, -3);
  EXPECT_EQ(early.band, EventBand::kSetup);
  EXPECT_EQ(early.kind, 0);
  EXPECT_EQ(early.seq, second);
  EXPECT_EQ(early.handler, &b);
  EXPECT_EQ(early.arg, INT64_MAX);

  const Event late = q.pop();
  EXPECT_EQ(late.time, 7);
  EXPECT_EQ(late.band, EventBand::kSubmit);
  EXPECT_EQ(late.kind, 200);
  EXPECT_EQ(late.seq, first);
  EXPECT_EQ(late.handler, &a);
  EXPECT_EQ(late.arg, -5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeOnEmptyIsMax) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeMax);
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), CheckError);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  Inert h;
  for (int i = 0; i < 1000; ++i) {
    Time t = (i * 7919) % 257;  // scrambled times with many duplicates
    q.push(t, EventBand::kNormal, h, 0, t);
  }
  std::vector<std::int64_t> fired = drain_args(q);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.size(), 1000u);
}

// Seeded differential check against a std::set reference ordered by the
// documented total order (time, band, insertion seq). Batch sizes run from
// 1 to 20,000 — single events between pops, long drains, bursts far larger
// than what is queued — with single-band and mixed-band batches, narrow
// (tie-heavy) and wide time ranges, and push/pop/next_time interleaved.
// Every pop must return the reference's first event whole: time, band,
// seq, and the handler, kind and arg it was pushed with.
TEST(EventQueue, MatchesOrderedSetReference) {
  using RefKey = std::tuple<Time, int, std::uint64_t>;  // (time, band, seq)
  struct Payload {
    EventHandler* handler;
    std::uint8_t kind;
    std::int64_t arg;
  };
  EventQueue q;
  Inert handlers[3];
  std::set<RefKey> pending;
  std::unordered_map<std::uint64_t, Payload> payload_of_seq;
  std::mt19937_64 rng(20150525);
  auto below = [&rng](std::uint64_t n) { return rng() % n; };

  auto draw_time = [&](int shape) -> Time {
    switch (shape) {
      case 0:  // heavy ties: the band and FIFO tie-breaks decide the order
        return static_cast<Time>(below(16));
      case 1:
        return static_cast<Time>(below(std::uint64_t{1} << 20));
      default:  // wide, negative included
        return static_cast<Time>(below(std::uint64_t{1} << 62)) -
               (Time{1} << 61);
    }
  };
  auto push_one = [&](Time t, int band) {
    const Payload payload{&handlers[below(3)], static_cast<std::uint8_t>(below(256)),
                          static_cast<std::int64_t>(rng())};
    const EventId seq =
        q.push(t, static_cast<EventBand>(band), *payload.handler, payload.kind, payload.arg);
    ASSERT_NE(seq, kInvalidEventId);
    ASSERT_TRUE(payload_of_seq.emplace(seq, payload).second) << "seq reissued";
    pending.emplace(t, band, seq);
  };
  auto check_front = [&] {
    ASSERT_EQ(q.empty(), pending.empty());
    ASSERT_EQ(q.next_time(), pending.empty() ? kTimeMax : std::get<0>(*pending.begin()));
  };
  auto pop_one = [&] {
    ASSERT_FALSE(pending.empty());
    const RefKey want = *pending.begin();
    const Event fired = q.pop();
    ASSERT_EQ(fired.time, std::get<0>(want));
    ASSERT_EQ(fired.seq, std::get<2>(want)) << "band " << std::get<1>(want);
    ASSERT_EQ(static_cast<int>(fired.band), std::get<1>(want));
    const Payload& payload = payload_of_seq.at(fired.seq);
    ASSERT_EQ(fired.handler, payload.handler);
    ASSERT_EQ(fired.kind, payload.kind);
    ASSERT_EQ(fired.arg, payload.arg);
    pending.erase(pending.begin());
    payload_of_seq.erase(fired.seq);
  };

  const std::size_t batches[] = {1,    2,  20000, 3,    1,   700, 5000, 128,  1,
                                 17,   1,  20000, 40,   2,   3000, 1,   9000, 4,
                                 1,    129, 64,   12000, 1,  300,  2,   1};
  std::uint64_t popped = 0;
  for (std::size_t round = 0; round < std::size(batches); ++round) {
    const std::size_t n = batches[round];
    const int shape = static_cast<int>(below(3));
    const bool mixed_bands = below(2) == 0;
    const int batch_band = static_cast<int>(below(3));
    for (std::size_t i = 0; i < n; ++i) {
      push_one(draw_time(shape), mixed_bands ? static_cast<int>(below(3)) : batch_band);
      ASSERT_FALSE(HasFatalFailure());
    }
    // Interleave single pushes, pops and peeks; every few rounds drain the
    // queue completely.
    const std::size_t ops = n / 2 + 8;
    for (std::size_t op = 0; op < ops; ++op) {
      check_front();
      ASSERT_FALSE(HasFatalFailure());
      switch (below(8)) {
        case 0:
        case 1:
        case 2:
        case 3:
          if (!pending.empty()) {
            pop_one();
            ++popped;
          }
          break;
        case 4:
        case 5:
          push_one(draw_time(shape), static_cast<int>(below(3)));
          break;
        default:
          break;  // peek only
      }
      ASSERT_FALSE(HasFatalFailure());
    }
    if (round % 4 == 3) {
      while (!pending.empty()) {
        pop_one();
        ASSERT_FALSE(HasFatalFailure());
        ++popped;
      }
    }
  }
  while (!pending.empty()) {
    pop_one();
    ASSERT_FALSE(HasFatalFailure());
    ++popped;
  }
  check_front();
  EXPECT_GT(popped, 50000u);
}

}  // namespace
}  // namespace ps::sim
