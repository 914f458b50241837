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

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&order] { order.push_back(3); });
  q.push(10, [&order] { order.push_back(1); });
  q.push(20, [&order] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  std::vector<int> expected(10);
  for (int i = 0; i < 10; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.push(10, [&fired] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.push(10, [] {});
  q.push(20, [] {});
  EXPECT_EQ(q.next_time(), 10);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, NextTimeOnEmptyIsMax) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeMax);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), CheckError);
}

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW((void)q.push(1, nullptr), CheckError);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<Time> fired;
  for (int i = 0; i < 1000; ++i) {
    Time t = (i * 7919) % 257;  // scrambled times with many duplicates
    q.push(t, [&fired, t] { fired.push_back(t); });
  }
  while (!q.empty()) q.pop().callback();
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.size(), 1000u);
}

// Seeded differential check against a std::set reference ordered by the
// documented total order (time, band, insertion seq). Batch sizes run from
// 1 to 20,000 — single events between pops, long drains, bursts far larger
// than what is queued — with single-band and mixed-band batches, narrow
// (tie-heavy) and wide time ranges, and push/pop/cancel/next_time
// interleaved. Cancels hit live ids, fired and cancelled ids (whose slots
// have mostly been reused), never-issued ids and kInvalidEventId; the
// expected result of every cancel is whether the reference holds the id.
TEST(EventQueue, MatchesOrderedSetReference) {
  using RefKey = std::tuple<Time, int, std::uint64_t>;  // (time, band, seq)
  EventQueue q;
  std::set<RefKey> pending;
  std::unordered_map<EventId, RefKey> live;
  std::unordered_map<std::uint64_t, EventId> id_of_seq;
  std::vector<EventId> issued;
  std::uint64_t next_seq = 0;
  std::uint64_t fired_seq = ~std::uint64_t{0};
  std::uint64_t stale_cancels = 0;  // ids that fired or were cancelled
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
    const std::uint64_t seq = next_seq++;
    EventId id = q.push(t, static_cast<EventBand>(band),
                        [&fired_seq, seq] { fired_seq = seq; });
    ASSERT_NE(id, kInvalidEventId);
    ASSERT_TRUE(live.emplace(id, RefKey{t, band, seq}).second) << "id reissued";
    pending.emplace(t, band, seq);
    id_of_seq.emplace(seq, id);
    issued.push_back(id);
  };
  auto check_front = [&] {
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(q.empty(), live.empty());
    ASSERT_EQ(q.next_time(), pending.empty() ? kTimeMax : std::get<0>(*pending.begin()));
  };
  auto pop_one = [&] {
    ASSERT_FALSE(pending.empty());
    const RefKey want = *pending.begin();
    EventQueue::Fired fired = q.pop();
    fired.callback();
    ASSERT_EQ(fired.time, std::get<0>(want));
    ASSERT_EQ(fired_seq, std::get<2>(want)) << "band " << std::get<1>(want);
    pending.erase(pending.begin());
    live.erase(id_of_seq.at(std::get<2>(want)));
  };
  auto cancel_one = [&](EventId id) {
    auto it = live.find(id);
    const bool expected = it != live.end();
    ASSERT_EQ(q.cancel(id), expected) << "id " << id;
    if (expected) {
      pending.erase(it->second);
      live.erase(it);
    }
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
    // Interleave single pushes, pops, cancels and peeks; every few rounds
    // drain the queue completely.
    const std::size_t ops = n / 2 + 8;
    for (std::size_t op = 0; op < ops; ++op) {
      check_front();
      ASSERT_FALSE(HasFatalFailure());
      switch (below(8)) {
        case 0:
        case 1:
        case 2:
          if (!pending.empty()) {
            pop_one();
            ++popped;
          }
          break;
        case 3:
          push_one(draw_time(shape), static_cast<int>(below(3)));
          break;
        case 4:  // a recent id: usually still live
          cancel_one(issued[issued.size() - 1 - below(std::min<std::size_t>(issued.size(), 64))]);
          break;
        case 5: {  // any id ever issued: mostly fired or cancelled by now
          const EventId id = issued[below(issued.size())];
          stale_cancels += live.count(id) == 0 ? 1 : 0;
          cancel_one(id);
          break;
        }
        case 6:  // never issued
          cancel_one(below(4) == 0 ? kInvalidEventId
                                   : issued[below(issued.size())] ^ (std::uint64_t{1} << 50));
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
  EXPECT_GT(stale_cancels, 1000u);
}

}  // namespace
}  // namespace ps::sim
