// Recorder step-series integrals (energy, work), summaries and report
// rendering, validated against hand-computed values on a 1-rack cluster
// (all-idle baseline 12 670 W).
#include "metrics/summary.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/curie.h"
#include "cluster/from_config.h"
#include "core/fingerprint.h"
#include "core/online.h"
#include "dist/serde.h"
#include "metrics/report.h"
#include "util/check.h"

namespace ps::metrics {
namespace {

rjms::ControllerConfig fcfs_config() {
  rjms::ControllerConfig config;
  config.priority.age = 0.0;
  config.priority.size = 0.0;
  config.priority.fair_share = 0.0;
  return config;
}

workload::JobRequest make_request(std::int64_t id, std::int64_t cores,
                                  sim::Duration runtime, sim::Duration walltime,
                                  sim::Time submit = 0) {
  workload::JobRequest request;
  request.id = id;
  request.submit_time = submit;
  request.requested_cores = cores;
  request.base_runtime = runtime;
  request.requested_walltime = walltime;
  return request;
}

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest()
      : cl_(cluster::curie::make_scaled_cluster(1)),
        controller_(sim_, cl_, fcfs_config()),
        recorder_(controller_) {}

  sim::Simulator sim_;
  cluster::Cluster cl_;
  rjms::Controller controller_;
  Recorder recorder_;
};

TEST_F(MetricsTest, IdleClusterEnergy) {
  sim_.run_until(sim::seconds(100));
  recorder_.sample(sim_.now());
  EXPECT_NEAR(recorder_.energy_joules(0, sim::seconds(100)), 12670.0 * 100.0, 1e-6);
  EXPECT_DOUBLE_EQ(recorder_.work_core_seconds(0, sim::seconds(100)), 0.0);
}

TEST_F(MetricsTest, JobEnergyAndWorkIntegrals) {
  // 10 nodes at 2.7 GHz for 50 s: energy adds 10*(358-117)*50 J;
  // work = 160 cores * 50 s.
  controller_.submit(make_request(1, 160, sim::seconds(50), sim::seconds(100)));
  sim_.run_until(sim::seconds(100));
  recorder_.sample(sim_.now());
  double expected_energy = 12670.0 * 100.0 + 10 * 241.0 * 50.0;
  EXPECT_NEAR(recorder_.energy_joules(0, sim::seconds(100)), expected_energy, 1e-6);
  EXPECT_NEAR(recorder_.work_core_seconds(0, sim::seconds(100)), 160.0 * 50.0, 1e-6);
}

TEST_F(MetricsTest, EffectiveWorkCorrectsForDegradation) {
  // A job forced to 1.2 GHz: occupancy work counts full core-seconds, the
  // effective work divides by the degradation 1.63.
  controller_.submit(make_request(1, 160, sim::seconds(50), sim::seconds(100)));
  sim_.run_until(sim::seconds(10));
  // Re-scale the running job's nodes to the lowest level directly (the
  // recorder only reads cluster state).
  for (cluster::NodeId node : controller_.job(1).nodes) {
    cl_.set_state(node, cluster::NodeState::Busy, 0);
  }
  recorder_.sample(sim_.now());
  sim_.run_until(sim::seconds(50));
  recorder_.sample(sim_.now());
  // [10 s, 50 s): 160 cores at 1.2 GHz.
  double occupancy = recorder_.work_core_seconds(sim::seconds(10), sim::seconds(50));
  double effective =
      recorder_.effective_work_core_seconds(sim::seconds(10), sim::seconds(50));
  EXPECT_NEAR(occupancy, 160.0 * 40.0, 1e-6);
  EXPECT_NEAR(effective, 160.0 * 40.0 / 1.63, 1e-6);
  // At max frequency the two metrics agree.
  double eff_max = recorder_.effective_work_core_seconds(0, sim::seconds(10));
  double occ_max = recorder_.work_core_seconds(0, sim::seconds(10));
  EXPECT_NEAR(eff_max, occ_max, 1e-6);
}

TEST_F(MetricsTest, PartialWindowIntegrals) {
  controller_.submit(make_request(1, 160, sim::seconds(50), sim::seconds(100)));
  sim_.run_until(sim::seconds(100));
  recorder_.sample(sim_.now());
  // Window [25 s, 75 s): job busy during [25, 50).
  EXPECT_NEAR(recorder_.work_core_seconds(sim::seconds(25), sim::seconds(75)),
              160.0 * 25.0, 1e-6);
}

TEST_F(MetricsTest, SamplesAreOrderedAndPartitionTheNodes) {
  controller_.submit(make_request(1, 160, sim::seconds(50), sim::seconds(100)));
  sim_.run_until(sim::seconds(100));
  recorder_.sample(sim_.now());
  const auto& samples = recorder_.samples();
  ASSERT_GE(samples.size(), 2u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (i > 0) EXPECT_LT(samples[i - 1].t, s.t);  // same-instant samples collapse
    ASSERT_EQ(s.busy_by_freq.size(), cl_.frequencies().size());
    std::int32_t busy = 0;
    for (std::int32_t n : s.busy_by_freq) busy += n;
    EXPECT_EQ(busy + s.idle_nodes + s.off_nodes + s.transitioning_nodes, 90) << "at " << s.t;
  }
  EXPECT_EQ(samples.front().busy_by_freq[cl_.frequencies().max_index()], 10);
  EXPECT_DOUBLE_EQ(samples.front().watts, 12670.0 + 10 * (358.0 - 117.0));
  EXPECT_EQ(samples.back().t, sim::seconds(100));
  EXPECT_EQ(samples.back().idle_nodes, 90);
  EXPECT_DOUBLE_EQ(samples.back().watts, 12670.0);
}

TEST_F(MetricsTest, MaxWattsTracksPeak) {
  controller_.submit(make_request(1, 1440, sim::seconds(50), sim::seconds(100)));
  sim_.run_until(sim::seconds(100));
  recorder_.sample(sim_.now());
  EXPECT_DOUBLE_EQ(recorder_.max_watts(0, sim::seconds(100)), 34360.0);
  EXPECT_DOUBLE_EQ(recorder_.max_watts(sim::seconds(60), sim::seconds(100)), 12670.0);
}

TEST_F(MetricsTest, CapViolationSecondsCounted) {
  // No governor: the cap is recorded but unenforced.
  controller_.add_powercap_reservation(sim::seconds(10), sim::seconds(60), 20000.0);
  controller_.submit(make_request(1, 1440, sim::seconds(80), sim::seconds(100)));
  sim_.run_until(sim::seconds(100));
  recorder_.sample(sim_.now());
  // Busy 34 360 W during [10, 60) -> 50 s above the cap.
  EXPECT_NEAR(recorder_.cap_violation_seconds(0, sim::seconds(100)), 50.0, 0.1);
}

TEST_F(MetricsTest, SummaryCountsJobs) {
  controller_.submit(make_request(1, 160, sim::seconds(50), sim::seconds(100)));
  controller_.submit(make_request(2, 160, sim::seconds(200), sim::seconds(100)));  // killed
  sim_.run_until(sim::seconds(300));
  recorder_.sample(sim_.now());
  RunSummary s = summarize(recorder_, controller_, 0, sim::seconds(300));
  EXPECT_EQ(s.launched_jobs, 2u);
  EXPECT_EQ(s.completed_jobs, 1u);
  EXPECT_EQ(s.killed_jobs, 1u);
  EXPECT_EQ(s.submitted_jobs, 2u);
  EXPECT_GT(s.energy_joules, 0.0);
  EXPECT_DOUBLE_EQ(s.max_possible_work, 1440.0 * 300.0);
  // Work: 160 cores * (50 + 100) seconds (job 2 killed at its walltime).
  EXPECT_NEAR(s.work_core_seconds, 160.0 * 150.0, 1e-6);
  EXPECT_NEAR(s.utilization, 160.0 * 150.0 / (1440.0 * 300.0), 1e-9);
}

TEST_F(MetricsTest, SummaryWaitTimes) {
  controller_.submit(make_request(1, 1440, sim::seconds(100), sim::seconds(100)));
  // Job 2 submitted at t=0 but starts when job 1 ends (t=100).
  controller_.submit(make_request(2, 1440, sim::seconds(100), sim::seconds(100)));
  while (sim_.step()) {}
  recorder_.sample(sim_.now());
  RunSummary s = summarize(recorder_, controller_, 0, sim::seconds(300));
  EXPECT_NEAR(s.mean_wait_seconds, 50.0, 1e-6);  // (0 + 100) / 2
}

TEST_F(MetricsTest, DescribeMentionsEnergyAndJobs) {
  sim_.run_until(sim::seconds(10));
  recorder_.sample(sim_.now());
  RunSummary s = summarize(recorder_, controller_, 0, sim::seconds(10));
  std::string text = s.describe();
  EXPECT_NE(text.find("energy"), std::string::npos);
  EXPECT_NE(text.find("jobs"), std::string::npos);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::string text = table.render();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_THROW(table.add_row({"wrong"}), ps::CheckError);
}

TEST(NormalizedBar, ClampsAndScales) {
  std::string full = normalized_bar(1.0, 10);
  std::string half = normalized_bar(0.5, 10);
  std::string over = normalized_bar(1.7, 10);
  EXPECT_EQ(std::count(full.begin(), full.end(), '#'), 10);
  EXPECT_EQ(std::count(half.begin(), half.end(), '#'), 5);
  EXPECT_EQ(std::count(over.begin(), over.end(), '#'), 10);
  EXPECT_NE(over.find("1.700"), std::string::npos);
}

/// A 12-level table spills every sample's counts to the heap: replays a
/// capped 1-rack run on it and checks the series end to end (shape,
/// determinism, the serde round trip).
core::ScenarioResult replay_twelve_levels() {
  util::Config config = util::Config::parse(
      "[cluster]\nracks = 1\n"
      "[power]\n"
      "freq_ghz = 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1\n"
      "freq_watts = 150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250, 260\n");
  cluster::Cluster cl(cluster::power_model_from_config(config));
  sim::Simulator sim;
  rjms::Controller controller(sim, cl, fcfs_config());
  core::PowercapConfig powercap;
  powercap.policy = core::Policy::Dvfs;
  core::OnlineGovernor governor(controller, powercap);
  controller.set_governor(&governor);
  controller.add_observer(&governor);
  Recorder recorder(controller);
  controller.add_powercap_reservation(0, sim::kTimeMax,
                                      0.6 * cl.power_model().max_cluster_watts());
  for (std::int64_t id = 1; id <= 40; ++id) {
    controller.submit(make_request(id, 64 * (1 + id % 10), sim::minutes(10 + id % 7),
                                   sim::minutes(40), sim::minutes(3 * id)));
  }
  const sim::Time end = sim::hours(6);
  sim.run_until(end);
  recorder.sample(end);
  core::ScenarioResult result;
  result.summary = summarize(recorder, controller, 0, end);
  result.stats = controller.stats();
  result.samples = std::move(recorder).samples();
  return result;
}

TEST(RecorderSpill, TwelveLevelReplayKeepsEveryCountThroughSerde) {
  core::ScenarioResult result = replay_twelve_levels();
  ASSERT_GT(result.samples.size(), 2u);
  bool top_busy = false;
  bool reduced_busy = false;
  for (const Sample& s : result.samples) {
    ASSERT_EQ(s.busy_by_freq.size(), 12u);
    EXPECT_GT(s.busy_by_freq.capacity(), 0u);  // held in a heap block
    top_busy |= s.busy_by_freq[11] > 0;
    reduced_busy |= std::any_of(s.busy_by_freq.begin(), s.busy_by_freq.end() - 1,
                                [](std::int32_t n) { return n > 0; });
  }
  EXPECT_TRUE(top_busy);
  EXPECT_TRUE(reduced_busy);

  const std::uint64_t fp = core::fingerprint(result);
  EXPECT_EQ(core::fingerprint(replay_twelve_levels()), fp);
  core::ScenarioResult parsed = dist::parse_scenario_result(dist::serialize(result));
  EXPECT_EQ(core::fingerprint(parsed), fp);
  ASSERT_EQ(parsed.samples.size(), result.samples.size());
  for (std::size_t i = 0; i < parsed.samples.size(); ++i) {
    ASSERT_TRUE(std::equal(parsed.samples[i].busy_by_freq.begin(),
                           parsed.samples[i].busy_by_freq.end(),
                           result.samples[i].busy_by_freq.begin(),
                           result.samples[i].busy_by_freq.end()))
        << "sample " << i;
  }
}

TEST(FreqCounts, SpillsPastTheInlineLevelsAndComesBack) {
  FreqCounts counts{1, 2, 3};
  EXPECT_EQ(counts.capacity(), 0u);
  for (std::int32_t v = 4; v <= 20; ++v) counts.emplace_back(v);
  ASSERT_EQ(counts.size(), 20u);
  EXPECT_GE(counts.capacity(), 20u);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], static_cast<std::int32_t>(i + 1));
  }
  FreqCounts copy = counts;
  FreqCounts moved = std::move(counts);
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), moved.begin(), moved.end()));
  const std::int32_t few[] = {7, 8};
  moved.assign(std::begin(few), std::end(few));
  EXPECT_EQ(moved.capacity(), 0u);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[1], 8);
  copy.clear();
  EXPECT_TRUE(copy.empty());
}

}  // namespace
}  // namespace ps::metrics
