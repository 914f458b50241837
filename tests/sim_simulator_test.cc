#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.h"

namespace ps::sim {
namespace {

TEST(Time, UnitHelpers) {
  EXPECT_EQ(seconds(2), 2000);
  EXPECT_EQ(minutes(3), 180'000);
  EXPECT_EQ(hours(1), 3'600'000);
  EXPECT_DOUBLE_EQ(to_seconds(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_hours(hours(5)), 5.0);
  EXPECT_EQ(from_seconds(1.5), 1500);
  EXPECT_EQ(from_seconds(0.0004), 0);
}

TEST(Simulator, AdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<Time> seen;
  sim.schedule_at(100, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(50, [&] { seen.push_back(sim.now()); });
  while (sim.step()) {}
  EXPECT_EQ(seen, (std::vector<Time>{50, 100}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.fired_count(), 2u);
}

TEST(Simulator, ScheduleInRelativeDelay) {
  Simulator sim;
  Time fired_at = -1;
  sim.schedule_at(10, [&] {
    sim.schedule_in(5, [&] { fired_at = sim.now(); });
  });
  while (sim.step()) {}
  EXPECT_EQ(fired_at, 15);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  Time fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(1, [&] { fired_at = sim.now(); });  // in the past
  });
  while (sim.step()) {}
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, NegativeDelayRejected) {
  Simulator sim;
  EXPECT_THROW((void)sim.schedule_in(-1, [] {}), CheckError);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_TRUE(sim.pending());
  EXPECT_EQ(sim.next_event_time(), 30);
}

TEST(Simulator, RunUntilIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  while (sim.step()) {}
  EXPECT_THROW((void)sim.run_until(5), CheckError);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  while (sim.step()) {}
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_at(10, [&] { order.push_back(2); });  // same timestamp
  });
  while (sim.step()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace ps::sim
