#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "scheduled_actions.h"
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

/// Records each event it handles: (now, kind, arg).
struct Recorder final : EventHandler {
  explicit Recorder(const Simulator& sim) : sim(sim) {}
  void on_event(const Event& event) override {
    ASSERT_EQ(event.handler, this);
    ASSERT_EQ(event.time, sim.now());
    seen.push_back({event.time, event.kind, event.arg});
  }
  struct Seen {
    Time time;
    std::uint8_t kind;
    std::int64_t arg;
    bool operator==(const Seen&) const = default;
  };
  const Simulator& sim;
  std::vector<Seen> seen;
};

TEST(Simulator, AdvancesClockToEventTimes) {
  Simulator sim;
  Recorder rec(sim);
  sim.schedule_at(100, rec, 1, -7);
  sim.schedule_at(50, rec, 2, 42);
  while (sim.step()) {}
  EXPECT_EQ(rec.seen, (std::vector<Recorder::Seen>{{50, 2, 42}, {100, 1, -7}}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.fired_count(), 2u);
  EXPECT_EQ(sim.scheduled_count(), 2u);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  ScheduledActions actions(sim);
  Time fired_at = -1;
  actions.at(100, [&] {
    actions.at(1, [&] { fired_at = sim.now(); });  // in the past
  });
  while (sim.step()) {}
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  Recorder rec(sim);
  sim.schedule_at(10, rec, 0);
  sim.schedule_at(20, rec, 0);
  sim.schedule_at(30, rec, 0);
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(rec.seen.size(), 2u);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.run_until(29), 0u);
  EXPECT_EQ(sim.now(), 29);
  EXPECT_EQ(sim.run_until(30), 1u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilIntoThePastThrows) {
  Simulator sim;
  Recorder rec(sim);
  sim.schedule_at(10, rec, 0);
  while (sim.step()) {}
  EXPECT_THROW((void)sim.run_until(5), CheckError);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  ScheduledActions actions(sim);
  std::vector<int> order;
  actions.at(10, [&] {
    order.push_back(1);
    actions.at(10, [&] { order.push_back(2); });  // same timestamp
  });
  while (sim.step()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, DefaultBandOrdersEqualTimes) {
  // Setup-band events fire before the submit band, which fires before
  // events scheduled once the default band is switched to kNormal.
  Simulator sim;
  Recorder rec(sim);
  sim.schedule_at(10, rec, 0, 1);
  sim.set_default_band(EventBand::kNormal);
  sim.schedule_at(10, rec, 0, 3);
  sim.schedule_at_band(10, EventBand::kSubmit, rec, 0, 2);
  sim.schedule_at_band(10, EventBand::kSetup, rec, 0, 1);
  while (sim.step()) {}
  std::vector<std::int64_t> args;
  for (const Recorder::Seen& seen : rec.seen) args.push_back(seen.arg);
  EXPECT_EQ(args, (std::vector<std::int64_t>{1, 1, 2, 3}));
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  Recorder rec(sim);
  sim.schedule_at(1, rec, 0);
  sim.schedule_at(2, rec, 0);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(rec.seen.size(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(rec.seen.size(), 2u);
}

}  // namespace
}  // namespace ps::sim
