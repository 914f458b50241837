// The metrics registry fence (src/obs/registry.h): exact counts under a
// hammering thread pool, snapshot monotonicity while writers race, the
// naming contract (same name + kind = same object, cross-kind = throws),
// the sealed wire format round trip, the measurement kill switch, and the
// CounterBaseline deltas report structs are built from.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "util/check.h"
#include "util/seal.h"
#include "util/wire.h"
#include "util/thread_pool.h"

namespace ps::obs {
namespace {

TEST(ObsRegistry, CounterHammerSumsExactly) {
  Registry registry;
  Counter& counter = registry.counter("hammer.total");
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kIncsPerTask = 10'000;
  util::ThreadPool pool(8);
  util::parallel_for(pool, kTasks, [&](std::size_t) {
    // Re-resolve the name from some tasks too: registration must hand back
    // the same object, and looking up while others increment must be safe.
    Counter& same = registry.counter("hammer.total");
    for (std::uint64_t i = 0; i < kIncsPerTask; ++i) same.inc();
  });
  EXPECT_EQ(counter.value(), kTasks * kIncsPerTask);
  EXPECT_EQ(&registry.counter("hammer.total"), &counter);
}

TEST(ObsRegistry, SnapshotsNeverDecreaseWhileWritersRace) {
  Registry registry;
  registry.counter("race.a");
  registry.counter("race.b");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Counter& a = registry.counter("race.a");
    Counter& b = registry.counter("race.b");
    while (!stop.load(std::memory_order_relaxed)) {
      a.inc();
      b.inc(3);
    }
  });
  std::uint64_t last_a = 0;
  std::uint64_t last_b = 0;
  for (int round = 0; round < 2'000; ++round) {
    Snapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    // Name-sorted export: race.a before race.b.
    ASSERT_EQ(snap.counters[0].name, "race.a");
    ASSERT_EQ(snap.counters[1].name, "race.b");
    EXPECT_GE(snap.counters[0].value, last_a);
    EXPECT_GE(snap.counters[1].value, last_b);
    last_a = snap.counters[0].value;
    last_b = snap.counters[1].value;
  }
  stop.store(true);
  writer.join();
}

TEST(ObsRegistry, SameNameSameKindReturnsSameObject) {
  Registry registry;
  EXPECT_EQ(&registry.counter("x"), &registry.counter("x"));
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
  // Geometry is fixed by the first registration; later parameters are
  // ignored rather than silently forking the metric.
  Histogram& h = registry.histogram("h", 0.01, 1e-3, 1e12);
  EXPECT_EQ(&registry.histogram("h", 0.05, 1.0, 10.0), &h);
}

TEST(ObsRegistry, CrossKindRegistrationThrows) {
  Registry registry;
  registry.counter("taken");
  EXPECT_THROW(registry.gauge("taken"), CheckError);
  EXPECT_THROW(registry.histogram("taken"), CheckError);
  registry.gauge("gauge.name");
  EXPECT_THROW(registry.counter("gauge.name"), CheckError);
}

TEST(ObsRegistry, SnapshotSerializeParseRoundTrips) {
  Registry registry;
  registry.counter("docs").inc(41);
  registry.gauge("queue_depth").set(17.25);
  registry.gauge("ratio").set(0.1);  // not exactly representable
  Histogram& lat = registry.histogram("latency_ms");
  for (double v : {0.5, 1.0, 2.0, 8.0, 64.0, 900.0}) lat.observe(v);

  Snapshot snap = registry.snapshot(/*sim_time_ms=*/123'456);
  snap.seq = 7;
  std::string wire = serialize_snapshot(snap);
  Snapshot back = parse_snapshot(wire);

  EXPECT_EQ(back.seq, 7u);
  EXPECT_EQ(back.wall_ns, snap.wall_ns);
  EXPECT_EQ(back.mono_ns, snap.mono_ns);
  EXPECT_EQ(back.sim_time_ms, 123'456);
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].name, "docs");
  EXPECT_EQ(back.counters[0].value, 41u);
  ASSERT_EQ(back.gauges.size(), 2u);
  EXPECT_EQ(back.gauges[0].name, "queue_depth");
  EXPECT_EQ(back.gauges[0].value, 17.25);
  EXPECT_EQ(back.gauges[1].value, 0.1);  // bit-exact through the hex pattern
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].name, "latency_ms");
  EXPECT_EQ(back.histograms[0].count, 6u);
  EXPECT_EQ(back.histograms[0].sum, snap.histograms[0].sum);
  EXPECT_EQ(back.histograms[0].p50, snap.histograms[0].p50);
  EXPECT_EQ(back.histograms[0].p99, snap.histograms[0].p99);
  EXPECT_EQ(back.histograms[0].max, snap.histograms[0].max);
}

TEST(ObsRegistry, ParseRejectsTornAndMalformedDocuments) {
  Registry registry;
  registry.counter("c").inc();
  std::string wire = serialize_snapshot(registry.snapshot());
  // A flipped byte in the body must fail the seal, not mis-parse.
  std::string torn = wire;
  torn[torn.find("c 1")] = 'z';
  EXPECT_THROW(parse_snapshot(torn), util::SerdeError);
  // A well-sealed document of the wrong shape must fail loudly too.
  EXPECT_THROW(parse_snapshot(util::seal_document("nonsense v9\n")),
               util::SerdeError);
}

TEST(ObsRegistry, KillSwitchZeroesIncrements) {
  Registry registry;
  Counter& counter = registry.counter("maybe");
  Gauge& gauge = registry.gauge("maybe.g");
  Histogram& hist = registry.histogram("maybe.h");
  registry.set_enabled(false);
  counter.inc(100);
  gauge.set(5.0);
  hist.observe(1.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(hist.sketch_copy().count(), 0u);
  registry.set_enabled(true);
  counter.inc(2);
  EXPECT_EQ(counter.value(), 2u);
}

TEST(ObsRegistry, CounterBaselineDeltasAreExactUnderRacingWriters) {
  Registry registry;
  registry.counter("run.docs").inc(1'000);  // before the run: excluded
  std::atomic<bool> stop{false};
  // Other code keeps incrementing (and registering) counters throughout.
  std::thread noise([&] {
    Counter& other = registry.counter("other.busy");
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      other.inc();
      if (i % 1'000 == 0) {
        registry.counter("other.late." + std::to_string(i / 1'000 % 8));
      }
    }
  });
  const CounterBaseline baseline(registry);
  constexpr std::size_t kTasks = 32;
  constexpr std::uint64_t kIncsPerTask = 5'000;
  util::ThreadPool pool(4);
  util::parallel_for(pool, kTasks, [&](std::size_t) {
    Counter& docs = registry.counter("run.docs");
    Counter& fresh = registry.counter("run.registered_late");
    for (std::uint64_t i = 0; i < kIncsPerTask; ++i) {
      docs.inc();
      fresh.inc(2);
    }
  });
  EXPECT_EQ(baseline.delta("run.docs"), kTasks * kIncsPerTask);
  EXPECT_EQ(baseline.delta("run.registered_late"), 2 * kTasks * kIncsPerTask);
  EXPECT_EQ(baseline.delta("never.registered"), 0u);
  stop.store(true);
  noise.join();

  // Kill switch on: nothing increments, so every delta reads 0.
  registry.set_enabled(false);
  const CounterBaseline disabled(registry);
  registry.counter("run.docs").inc(7);
  registry.counter("run.off_only").inc(7);
  EXPECT_EQ(disabled.delta("run.docs"), 0u);
  EXPECT_EQ(disabled.delta("run.off_only"), 0u);
  EXPECT_EQ(disabled.delta("other.busy"), 0u);
}

TEST(ObsRegistry, PrometheusExpositionManglesNames) {
  Registry registry;
  registry.counter("serve.ingest.claims").inc(9);
  registry.gauge("serve.queue_depth").set(4);
  registry.histogram("serve.latency_ms").observe(2.5);
  std::string text = prometheus_exposition(registry.snapshot());
  EXPECT_NE(text.find("ps_serve_ingest_claims 9"), std::string::npos) << text;
  EXPECT_NE(text.find("ps_serve_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("ps_serve_latency_ms_count 1"), std::string::npos);
  EXPECT_NE(text.find("quantile"), std::string::npos);
}

}  // namespace
}  // namespace ps::obs
