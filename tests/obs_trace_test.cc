// The trace-span fence (src/obs/trace.h): spans are no-ops outside a
// session, rings bound memory by dropping oldest (and say so), the Chrome
// export is well-formed and carries every thread, and — the determinism
// clause — running golden-fenced replays with tracing AND the registry
// enabled is byte-identical to running without.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include "core/experiment.h"
#include "fig8_golden.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scenario_fingerprint.h"

namespace ps::obs {
namespace {

// Events in an exported trace: each span is one complete ("X") event.
std::size_t event_count(const std::string& json) {
  std::size_t n = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++n;
  }
  return n;
}

TEST(ObsTrace, SpansOutsideSessionAreNoOps) {
  ASSERT_FALSE(tracing());
  {
    PS_TRACE_SPAN("untraced.outer");
    PS_TRACE_SPAN("untraced.inner");
  }
  std::string json = export_chrome_trace();
  EXPECT_EQ(event_count(json), 0u) << json;
  EXPECT_NE(json.find("\"dropped\":\"0\""), std::string::npos) << json;
}

TEST(ObsTrace, NestedSpansRecordAndExport) {
  start_tracing();
  {
    PS_TRACE_SPAN("outer");
    PS_TRACE_SPAN("inner");
    { PS_TRACE_SPAN("leaf"); }
  }
  stop_tracing();

  std::string json = export_chrome_trace();
  EXPECT_EQ(event_count(json), 3u) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":\"0\""), std::string::npos);
  for (const char* name : {"\"outer\"", "\"inner\"", "\"leaf\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  // Complete events with µs-relative timestamps.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(ObsTrace, RingDropsOldestAndCountsIt) {
  start_tracing(/*per_thread_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    PS_TRACE_SPAN("wrap");
  }
  stop_tracing();
  std::string json = export_chrome_trace();
  EXPECT_EQ(event_count(json), 4u) << json;
  EXPECT_NE(json.find("\"dropped\":\"6\""), std::string::npos) << json;
}

TEST(ObsTrace, SessionRestartClearsPriorEvents) {
  start_tracing();
  { PS_TRACE_SPAN("first.session"); }
  stop_tracing();
  ASSERT_EQ(event_count(export_chrome_trace()), 1u);
  start_tracing();
  { PS_TRACE_SPAN("second.session"); }
  stop_tracing();
  std::string json = export_chrome_trace();
  EXPECT_EQ(event_count(json), 1u) << json;
  EXPECT_EQ(json.find("first.session"), std::string::npos);
  EXPECT_NE(json.find("second.session"), std::string::npos);
}

TEST(ObsTrace, ThreadsGetDistinctTids) {
  start_tracing();
  { PS_TRACE_SPAN("main.thread"); }
  std::thread other([] { PS_TRACE_SPAN("other.thread"); });
  other.join();
  stop_tracing();
  std::string json = export_chrome_trace();
  EXPECT_EQ(event_count(json), 2u) << json;
  EXPECT_NE(json.find("main.thread"), std::string::npos);
  EXPECT_NE(json.find("other.thread"), std::string::npos);
  // Two different "tid": values must appear.
  std::size_t first = json.find("\"tid\":");
  std::size_t second = json.find("\"tid\":", first + 1);
  ASSERT_NE(second, std::string::npos);
  std::size_t first_end = json.find(',', first);
  std::size_t second_end = json.find(',', second);
  EXPECT_NE(json.substr(first, first_end - first),
            json.substr(second, second_end - second));
}

// The determinism clause: observability must be pure observation. A subset
// of the committed Fig-8 golden grid replayed with tracing + registry
// active must reproduce the exact committed digests.
TEST(ObsTrace, GoldenReplaysUnmovedByTracing) {
  ASSERT_TRUE(Registry::global().enabled());
  start_tracing();
  // One case per workload profile — enough to cover every policy family's
  // instrumented paths without rerunning the whole 27-cell grid here.
  const core::testing::GoldenCase subset[] = {
      core::testing::kFig8GoldenCases[0],   // BigJob 0.40 Mix
      core::testing::kFig8GoldenCases[13],  // MedianJob 0.60 Dvfs
      core::testing::kFig8GoldenCases[26],  // SmallJob 1.00 None
  };
  for (const core::testing::GoldenCase& gc : subset) {
    core::ScenarioResult result = core::run_scenario(
        core::testing::fig8_golden_config(gc.profile, gc.policy, gc.lambda));
    EXPECT_EQ(core::testing::fingerprint(result), gc.digest)
        << "tracing/registry moved a golden digest";
  }
  stop_tracing();
  EXPECT_GT(event_count(export_chrome_trace()), 0u);  // the replay really was traced
}

}  // namespace
}  // namespace ps::obs
