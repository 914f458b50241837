// The governor's epoch-keyed admission cache: rejections are priced once
// per distinct (walltime, width, degmin) class per (epoch, now,
// book-version) generation, invalidated on resource changes, and — under
// audit mode — continuously cross-checked against brute-force re-verdicts
// the way Cluster::audit_watts fences the incremental power accounting.
// Accepted verdicts are not cached: the controller starts the job at once,
// and the start moves the generation.
#include <gtest/gtest.h>

#include "cluster/curie.h"
#include "core/experiment.h"
#include "core/online.h"
#include "core/powercap_manager.h"

namespace ps::core {
namespace {

rjms::ControllerConfig fcfs_config(std::size_t backfill_depth = 50) {
  rjms::ControllerConfig config;
  config.priority.age = 0.0;
  config.priority.size = 0.0;
  config.priority.fair_share = 0.0;
  config.backfill_depth = backfill_depth;
  return config;
}

workload::JobRequest make_request(std::int64_t id, std::int64_t cores,
                                  sim::Duration runtime, sim::Duration walltime) {
  workload::JobRequest request;
  request.id = id;
  request.requested_cores = cores;
  request.base_runtime = runtime;
  request.requested_walltime = walltime;
  return request;
}

class AdmissionCacheTest : public ::testing::Test {
 protected:
  AdmissionCacheTest()
      : cl_(cluster::curie::make_scaled_cluster(1)),  // 90 nodes
        controller_(sim_, cl_, fcfs_config(500)) {}

  PowercapConfig strict_config(bool audit = false) {
    PowercapConfig config;
    config.policy = Policy::Mix;
    config.admission = AdmissionMode::PaperLiveStrict;
    config.audit_admission_cache = audit;
    return config;
  }

  /// A future window no frequency can satisfy: every job overlapping it
  /// stays pending under PaperLiveStrict, so passes re-price the queue.
  void add_blocking_window(rjms::Controller& controller) {
    controller.add_powercap_reservation(sim::hours(1), sim::hours(2), 1000.0);
  }

  sim::Simulator sim_;
  cluster::Cluster cl_;
  rjms::Controller controller_;
};

TEST_F(AdmissionCacheTest, DeepQueuePricesEachClassOnce) {
  OnlineGovernor governor(controller_, strict_config());
  controller_.set_governor(&governor);
  controller_.add_observer(&governor);
  add_blocking_window(controller_);

  // 120 pending jobs of 4 distinct classes, all overlapping the window.
  for (std::int64_t i = 0; i < 120; ++i) {
    controller_.submit(make_request(i + 1, 16 * (1 + i % 4), sim::hours(1),
                                    sim::hours(2)));
  }
  sim_.run_until(0);  // the coalesced pass prices the whole queue

  const auto& stats = governor.admission_cache_stats();
  EXPECT_EQ(controller_.pending_count(), 120u);  // nothing admitted
  // Only the distinct classes were actually priced; every other attempt was
  // settled by a cached rejection before the selector even ran.
  EXPECT_LE(stats.misses, 8u);
  EXPECT_GE(stats.fast_rejects, 112u);
  EXPECT_GE(controller_.stats().admission_fast_fails, 112u);
  EXPECT_EQ(stats.misses + stats.hits + stats.fast_rejects, 120u);
}

TEST_F(AdmissionCacheTest, CarriesVerdictsAcrossQuiescentTimeAdvance) {
  // An active open-ended cap just above the idle floor: every class fails
  // the instantaneous check, nothing ever starts, and the epoch/book stay
  // put while the clock advances — the regime where the generation used to
  // clear on every timestep for no reason. Audit mode fences every carried
  // verdict brute-force.
  PowercapConfig pc;
  pc.policy = Policy::Mix;
  pc.audit_admission_cache = true;
  OnlineGovernor governor(controller_, pc);
  controller_.set_governor(&governor);
  controller_.add_observer(&governor);
  controller_.add_powercap_reservation(0, sim::kTimeMax, cl_.watts() + 1.0);

  for (int step = 0; step < 10; ++step) {
    controller_.submit(make_request(step + 1, 32, sim::hours(1), sim::hours(2)));
    sim_.run_until(sim_.now() + sim::seconds(1));
  }
  const auto& stats = governor.admission_cache_stats();
  EXPECT_EQ(controller_.pending_count(), 10u);
  // One class, priced exactly once across all ten timesteps; later steps
  // carried the generation forward instead of clearing it.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.carries, 8u);
  EXPECT_GE(stats.hits + stats.fast_rejects, 9u);
  EXPECT_EQ(stats.invalidations, 0u);
}

TEST_F(AdmissionCacheTest, ShortKeyCarriesSurviveLongKeyEviction) {
  // Per-key span tracking (vs the old generation-wide max): a future
  // window start entering only the *long* class's degradation-stretched
  // span must evict exactly that key. The short class keeps carrying and
  // is never re-priced; the long class re-prices every quiescent timestep.
  // Audit mode brute-force-fences every carried hit along the way.
  OnlineGovernor governor(controller_, strict_config(/*audit=*/true));
  controller_.set_governor(&governor);
  controller_.add_observer(&governor);
  // An open-ended cap just above the idle floor rejects both classes now,
  // so both are cached; only the rejected classes are.
  controller_.add_powercap_reservation(0, sim::kTimeMax, cl_.watts() + 1.0);
  add_blocking_window(controller_);  // unsatisfiable window at [1h, 2h)
  sim_.run_until(0);  // the cap's start boundary fires (an epoch bump)

  // Short class: even fully degradation-stretched it ends well before the
  // 1 h window start. Long class: overlaps it from t=0. Both are rejected
  // by the cap active now.
  rjms::Job short_job;
  short_job.request = make_request(1, 32, sim::minutes(2), sim::minutes(5));
  rjms::Job long_job;
  long_job.request = make_request(2, 32, sim::hours(1), sim::hours(2));
  std::vector<cluster::NodeId> nodes(2);
  nodes[0] = 0;
  nodes[1] = 1;

  auto probe_both = [&] {
    (void)governor.admit(short_job, nodes);
    (void)governor.admit(long_job, nodes);
  };
  probe_both();
  const auto& stats = governor.admission_cache_stats();
  EXPECT_EQ(stats.misses, 2u);  // both classes priced once
  EXPECT_FALSE(governor.admit(short_job, nodes).has_value());  // a hit
  EXPECT_EQ(stats.hits, 1u);

  for (int step = 1; step <= 6; ++step) {
    sim_.run_until(sim_.now() + sim::seconds(1));
    probe_both();
  }
  // The long key's span meets the window start on every advance: one
  // eviction + one re-price per step. The short key carried throughout —
  // its 2 + 6 probes cost exactly one miss.
  EXPECT_EQ(stats.misses, 2u + 6u);
  EXPECT_EQ(stats.key_evictions, 6u);
  EXPECT_EQ(stats.carries, 6u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.hits, 1u + 6u);  // the short key's carried re-probes
  EXPECT_EQ(stats.audits, stats.hits);
}

TEST_F(AdmissionCacheTest, FutureWindowInsideHorizonBlocksCarry) {
  // With an unsatisfiable *future* window inside every span horizon the
  // carry must refuse (the overlapped-window set is time-dependent), so
  // each quiescent timestep re-prices the class — the conservative side of
  // the granularity split.
  OnlineGovernor governor(controller_, strict_config(/*audit=*/true));
  controller_.set_governor(&governor);
  controller_.add_observer(&governor);
  add_blocking_window(controller_);

  for (int step = 0; step < 5; ++step) {
    controller_.submit(make_request(step + 1, 32, sim::hours(1), sim::hours(2)));
    sim_.run_until(sim_.now() + sim::seconds(1));
  }
  const auto& stats = governor.admission_cache_stats();
  EXPECT_EQ(controller_.pending_count(), 5u);
  EXPECT_EQ(stats.carries, 0u);
  EXPECT_EQ(stats.misses, 5u);  // one fresh verdict per timestep
}

TEST_F(AdmissionCacheTest, ResourceChangesInvalidate) {
  OnlineGovernor governor(controller_, strict_config());
  controller_.set_governor(&governor);
  controller_.add_observer(&governor);
  add_blocking_window(controller_);

  // A short job that fits before the window starts and a long one that
  // does not: the start/end of the short job bump the epoch, so the long
  // job's verdict is re-priced in the new generations.
  controller_.submit(make_request(1, 160, sim::seconds(600), sim::seconds(900)));
  controller_.submit(make_request(2, 160, sim::hours(1), sim::hours(2)));
  while (sim_.step()) {}

  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Completed);
  const auto& stats = governor.admission_cache_stats();
  EXPECT_GE(stats.invalidations, 1u);
  EXPECT_GE(stats.misses, 2u);  // distinct generations recompute
}

TEST_F(AdmissionCacheTest, AuditModeAgreesOnFullScenario) {
  // End-to-end fence: a capped scenario run with every cache hit
  // re-verdicted brute-force. Any divergence throws inside run_scenario.
  ScenarioConfig config;
  workload::GeneratorParams params = workload::params_for(workload::Profile::MedianJob);
  params.span = sim::hours(1);
  params.job_count = 400;
  params.w_huge = 0.0;
  config.custom_workload = params;
  config.racks = 2;
  config.powercap.policy = Policy::Mix;
  config.cap_lambda = 0.5;

  ScenarioConfig audited = config;
  audited.powercap.audit_admission_cache = true;

  ScenarioResult plain = run_scenario(config);
  ScenarioResult checked = run_scenario(audited);
  // Audit mode must be observation-only.
  EXPECT_EQ(plain.summary.energy_joules, checked.summary.energy_joules);
  EXPECT_EQ(plain.summary.launched_jobs, checked.summary.launched_jobs);
  EXPECT_EQ(plain.stats.started, checked.stats.started);
}

TEST_F(AdmissionCacheTest, CachedAdmissionReproducesScaledDurations) {
  // Two identical-class admissions within one generation: accepted
  // verdicts are not cached (in live scheduling a positive verdict starts
  // the job at once and bumps the epoch), so the second re-prices, and it
  // must yield bit-identical frequency and scaled durations.
  PowercapConfig pc;
  pc.policy = Policy::Dvfs;
  OnlineGovernor governor(controller_, pc);
  controller_.set_governor(&governor);
  controller_.add_observer(&governor);
  // Cap low enough that a 10-node job needs a reduced frequency.
  controller_.add_powercap_reservation(0, sim::kTimeMax, 14000.0);

  rjms::Job job;
  job.request = make_request(1, 160, sim::seconds(1000), sim::seconds(2000));
  std::vector<cluster::NodeId> nodes(10);
  for (std::int32_t i = 0; i < 10; ++i) nodes[static_cast<std::size_t>(i)] = i;

  auto first = governor.admit(job, nodes);
  auto second = governor.admit(job, nodes);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(governor.admission_cache_stats().hits, 0u);
  EXPECT_EQ(governor.admission_cache_stats().misses, 2u);
  EXPECT_LT(first->freq, cl_.frequencies().max_index());  // DVFS actually engaged
  EXPECT_EQ(first->freq, second->freq);
  EXPECT_EQ(first->scaled_runtime, second->scaled_runtime);
  EXPECT_EQ(first->scaled_walltime, second->scaled_walltime);
}

}  // namespace
}  // namespace ps::core
