// Online Algorithm 2: frequency selection against active and future
// powercap windows, persistence bookkeeping, policy frequency ranges.
// Cluster: 1 Curie rack (90 nodes); all-idle baseline 12 670 W, all-busy
// at 2.7 GHz 34 360 W.
#include "core/online.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "apps/calibrated_apps.h"
#include "cluster/curie.h"
#include "core/powercap_manager.h"
#include "util/rng.h"

namespace ps::core {
namespace {

rjms::ControllerConfig fcfs_config() {
  rjms::ControllerConfig config;
  config.priority.age = 0.0;
  config.priority.size = 0.0;
  config.priority.fair_share = 0.0;
  return config;
}

// `base` stretched by `factor`, rounded to the millisecond as the governor
// rounds an admitted job's runtime.
sim::Duration stretched(sim::Duration base, double factor) {
  return static_cast<sim::Duration>(std::llround(static_cast<double>(base) * factor));
}

workload::JobRequest make_request(std::int64_t id, std::int64_t cores,
                                  sim::Duration runtime, sim::Duration walltime,
                                  std::string app = "") {
  workload::JobRequest request;
  request.id = id;
  request.requested_cores = cores;
  request.base_runtime = runtime;
  request.requested_walltime = walltime;
  request.app = std::move(app);
  return request;
}

class OnlineTest : public ::testing::Test {
 protected:
  OnlineTest()
      : cl_(cluster::curie::make_scaled_cluster(1)),
        controller_(sim_, cl_, fcfs_config()) {}

  PowercapConfig dvfs_config() {
    PowercapConfig config;
    config.policy = Policy::Dvfs;
    return config;
  }

  sim::Simulator sim_;
  cluster::Cluster cl_;
  rjms::Controller controller_;
};

TEST_F(OnlineTest, NoCapAdmitsAtMaxFrequency) {
  PowercapManager manager(controller_, dvfs_config());
  controller_.submit(make_request(1, 1440, sim::seconds(100), sim::seconds(200)));
  while (sim_.step()) {}
  EXPECT_EQ(controller_.job(1).freq, cl_.frequencies().max_index());
  EXPECT_EQ(controller_.job(1).scaled_runtime, sim::seconds(100));
}

TEST_F(OnlineTest, ActiveCapForcesLowerFrequency) {
  PowercapManager manager(controller_, dvfs_config());
  // Cap 25 kW: 90 nodes need watts <= 117 + 12330/90 = 254 -> 1.8 GHz (248).
  manager.add_powercap(sim_.now(), sim::kTimeMax, 25000.0);
  controller_.submit(make_request(1, 1440, sim::seconds(1000), sim::seconds(2000)));
  sim_.run_until(sim::seconds(10));
  const rjms::Job& job = controller_.job(1);
  ASSERT_EQ(job.state, rjms::JobState::Running);
  EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(job.freq), 1.8);
  EXPECT_LE(cl_.watts(), 25000.0 + 1e-6);
  // Runtime stretched by the interpolated degradation at 1.8 GHz.
  cluster::DegradationModel deg(cl_.frequencies(), 1.63);
  EXPECT_EQ(job.scaled_runtime, stretched(sim::seconds(1000), deg.factor(job.freq)));
}

TEST_F(OnlineTest, ImpossibleCapKeepsJobPending) {
  PowercapConfig config = dvfs_config();
  PowercapManager manager(controller_, config);
  // Even 1.2 GHz on 90 nodes needs 12670 + 90*76 = 19510 W; cap below that
  // blocks the full-width job entirely.
  manager.add_powercap(sim_.now(), sim::kTimeMax, 19000.0);
  controller_.submit(make_request(1, 1440, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(sim::seconds(10));
  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Pending);
  // A half-width job fits at some frequency.
  controller_.submit(make_request(2, 640, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(sim::seconds(20));
  EXPECT_EQ(controller_.job(2).state, rjms::JobState::Running);
}

TEST_F(OnlineTest, ShutPolicyNeverLowersFrequency) {
  PowercapConfig config;
  config.policy = Policy::Shut;
  PowercapManager manager(controller_, config);
  manager.add_powercap(sim_.now(), sim::kTimeMax, 25000.0);
  controller_.submit(make_request(1, 1440, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(sim::seconds(10));
  // fmax would need 34 360 W > cap; SHUT cannot slow it down -> pending.
  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Pending);
  // Smaller job runs at fmax: 40 nodes -> 12670 + 40*241 = 22310 <= cap.
  controller_.submit(make_request(2, 640, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(sim::seconds(20));
  EXPECT_EQ(controller_.job(2).state, rjms::JobState::Running);
  EXPECT_EQ(controller_.job(2).freq, cl_.frequencies().max_index());
}

TEST_F(OnlineTest, MixPolicyRespectsFrequencyFloor) {
  PowercapConfig config;
  config.policy = Policy::Mix;
  PowercapManager manager(controller_, config);
  manager.add_powercap(sim_.now(), sim::kTimeMax, 25000.0);
  // 90 nodes at the MIX floor (2.0 GHz, 269 W) need 12670 + 90*152 = 26350
  // > 25000: pending despite lower frequencies existing below the floor.
  controller_.submit(make_request(1, 1440, sim::seconds(100), sim::seconds(200)));
  sim_.run_until(sim::seconds(10));
  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Pending);
}

TEST_F(OnlineTest, FutureWindowLowersFrequencyAhead) {
  PowercapManager manager(controller_, dvfs_config());
  // Window [1000 s, 2000 s): cap 20 kW. The window's global optimal
  // frequency: 90 nodes * P(f) + infra 2 140 <= 20 000 -> P(f) <= 198.4 ->
  // 1.2 GHz. Overlapping jobs are clamped to it (paper's "preparing for
  // the cap" ramp).
  manager.add_powercap(sim::seconds(1000), sim::seconds(2000), 20000.0);
  controller_.submit(make_request(1, 1440, sim::seconds(1200), sim::seconds(1500)));
  sim_.run_until(sim::seconds(10));
  const rjms::Job& job = controller_.job(1);
  ASSERT_EQ(job.state, rjms::JobState::Running);
  EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(job.freq), 1.2);
}

TEST_F(OnlineTest, OptimalWindowFreqComputation) {
  PowercapManager manager(controller_, dvfs_config());
  rjms::ReservationId id =
      controller_.add_powercap_reservation(sim::seconds(1000), sim::seconds(2000), 26000.0);
  const rjms::Reservation& cap = controller_.reservations().find(id);
  // 90 * P(f) + 2 140 <= 26 000 -> P(f) <= 265.1 -> 1.8 GHz (248 W).
  auto f_star = manager.governor().optimal_window_freq(cap);
  ASSERT_TRUE(f_star.has_value());
  EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(*f_star), 1.8);
}

TEST_F(OnlineTest, UnsatisfiableWindowBestEffortUsesLowestFrequency) {
  // Cap below even all-at-1.2-GHz: f* undefined. PaperLive (default) still
  // admits overlapping jobs at the policy's lowest frequency; the live
  // check protects the cap once the window is active.
  PowercapManager manager(controller_, dvfs_config());
  manager.add_powercap(sim::seconds(1000), sim::seconds(2000), 15000.0);
  controller_.submit(make_request(1, 1440, sim::seconds(1200), sim::seconds(1500)));
  sim_.run_until(sim::seconds(10));
  const rjms::Job& job = controller_.job(1);
  ASSERT_EQ(job.state, rjms::JobState::Running);
  EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(job.freq), 1.2);
}

TEST_F(OnlineTest, UnsatisfiableWindowStrictModeKeepsPending) {
  PowercapConfig config = dvfs_config();
  config.admission = AdmissionMode::PaperLiveStrict;
  PowercapManager manager(controller_, config);
  manager.add_powercap(sim::seconds(1000), sim::seconds(2000), 15000.0);
  controller_.submit(make_request(1, 1440, sim::seconds(1200), sim::seconds(1500)));
  sim_.run_until(sim::seconds(10));
  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Pending);
  // A job ending before the window is unaffected.
  controller_.submit(make_request(2, 1440, sim::seconds(500), sim::seconds(900)));
  sim_.run_until(sim::seconds(20));
  EXPECT_EQ(controller_.job(2).state, rjms::JobState::Running);
}

TEST_F(OnlineTest, ShutPolicyOverlappingJobsRunAtMaxBeforeWindow) {
  // SHUT cannot scale frequencies; before the window jobs run at fmax and
  // the offline shutdown (not tested here) absorbs the cap.
  PowercapConfig config;
  config.policy = Policy::Shut;
  PowercapManager manager(controller_, config);
  manager.add_powercap(sim::seconds(1000), sim::seconds(2000), 15000.0);
  // 20 nodes: fits beside the ~54 nodes the offline phase reserved.
  controller_.submit(make_request(1, 320, sim::seconds(1200), sim::seconds(1500)));
  sim_.run_until(sim::seconds(10));
  const rjms::Job& job = controller_.job(1);
  ASSERT_EQ(job.state, rjms::JobState::Running);
  EXPECT_EQ(job.freq, cl_.frequencies().max_index());
}

TEST_F(OnlineTest, JobEndingBeforeWindowRunsAtMax) {
  PowercapManager manager(controller_, dvfs_config());
  manager.add_powercap(sim::seconds(1000), sim::seconds(2000), 20000.0);
  controller_.submit(make_request(1, 1440, sim::seconds(500), sim::seconds(900)));
  sim_.run_until(sim::seconds(10));
  EXPECT_EQ(controller_.job(1).freq, cl_.frequencies().max_index());
}

TEST_F(OnlineTest, ProjectionModePersistingJobsAccumulateAgainstWindow) {
  PowercapConfig config = dvfs_config();
  config.admission = AdmissionMode::Projection;
  PowercapManager manager(controller_, config);
  // Window budget above the all-idle baseline: 20 000 - 12 670 = 7 330 W.
  manager.add_powercap(sim::seconds(1000), sim::seconds(2000), 20000.0);
  // J1: 10 nodes at fmax persisting into the window: surplus 2 410 W.
  controller_.submit(make_request(1, 160, sim::seconds(1200), sim::seconds(1500)));
  // J2: 30 nodes; remaining budget 7330-2410 = 4920 -> w <= 281 -> 2.0 GHz.
  controller_.submit(make_request(2, 480, sim::seconds(1200), sim::seconds(1500)));
  sim_.run_until(sim::seconds(10));
  EXPECT_EQ(controller_.job(1).freq, cl_.frequencies().max_index());
  ASSERT_EQ(controller_.job(2).state, rjms::JobState::Running);
  EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(controller_.job(2).freq), 2.0);
}

TEST_F(OnlineTest, ProjectionModeEarlyEndReleasesWindowBudget) {
  PowercapConfig config = dvfs_config();
  config.admission = AdmissionMode::Projection;
  PowercapManager manager(controller_, config);
  manager.add_powercap(sim::seconds(1000), sim::seconds(2000), 20000.0);
  // J1 walltime overlaps the window but it actually finishes at t=100.
  controller_.submit(make_request(1, 160, sim::seconds(100), sim::seconds(1500)));
  sim_.run_until(sim::seconds(200));
  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Completed);
  // J2 submitted after J1 ended: full window budget available again.
  controller_.submit(make_request(2, 480, sim::seconds(1200), sim::seconds(1500)));
  sim_.run_until(sim::seconds(300));
  // 30 nodes * (358-117) = 7 230 <= 7 330 -> even fmax fits.
  EXPECT_EQ(controller_.job(2).freq, cl_.frequencies().max_index());
}

TEST_F(OnlineTest, ProjectionModeNeverAdmitsBeyondWindowBudget) {
  PowercapConfig config = dvfs_config();
  config.admission = AdmissionMode::Projection;
  PowercapManager manager(controller_, config);
  manager.add_powercap(sim::seconds(1000), sim::seconds(2000), 15000.0);
  // Budget above idle: 2 330 W. A 90-node job cannot fit at any frequency
  // (90 * 76 = 6 840 W at 1.2 GHz): stays pending under Projection.
  controller_.submit(make_request(1, 1440, sim::seconds(1200), sim::seconds(1500)));
  sim_.run_until(sim::seconds(10));
  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Pending);
}

TEST_F(OnlineTest, PlannedSwitchOffRaisesWindowHeadroom) {
  PowercapConfig config;
  config.policy = Policy::Mix;
  PowercapManager manager(controller_, config);
  // Low cap -> offline reserves shutdown nodes; their idle draw leaves the
  // projected baseline, so remaining nodes can be admitted.
  double cap = 0.5 * cl_.power_model().max_cluster_watts();  // 17 180 W
  manager.add_powercap(sim::seconds(1000), sim::seconds(2000), cap);
  ASSERT_FALSE(manager.plans().empty());
  const OfflinePlan& plan = manager.plans().front();
  ASSERT_GT(plan.selection.nodes.size(), 0u);

  // A job on few nodes overlapping the window: projection must subtract
  // the planned saving, leaving room at some frequency.
  controller_.submit(make_request(1, 160, sim::seconds(1200), sim::seconds(1500)));
  sim_.run_until(sim::seconds(10));
  EXPECT_EQ(controller_.job(1).state, rjms::JobState::Running);
}

TEST_F(OnlineTest, AppSpecificDegradationUsed) {
  PowercapConfig config = dvfs_config();
  config.use_app_degmin = true;
  PowercapManager manager(controller_, config);
  // Forces 1.8 GHz for 90-node jobs.
  manager.add_powercap(sim_.now(), sim::kTimeMax, 25000.0);
  controller_.submit(
      make_request(1, 1440, sim::seconds(1000), sim::seconds(2000), "linpack"));
  sim_.run_until(sim::seconds(5));
  const rjms::Job& job = controller_.job(1);
  ASSERT_EQ(job.state, rjms::JobState::Running);
  cluster::DegradationModel deg(cl_.frequencies(), 1.63);
  // linpack degmin 2.14 > default 1.63: runtime stretched more.
  EXPECT_GT(job.scaled_runtime, stretched(sim::seconds(1000), deg.factor(job.freq)));
  EXPECT_EQ(job.scaled_runtime, stretched(sim::seconds(1000), deg.factor(job.freq, 2.14)));
}

TEST_F(OnlineTest, WalltimeStretchReflectsPolicy) {
  OnlineGovernor dvfs(controller_, dvfs_config());
  EXPECT_GT(dvfs.max_walltime_stretch(), 2.0);  // worst app degmin 2.14

  PowercapConfig shut;
  shut.policy = Policy::Shut;
  OnlineGovernor shut_governor(controller_, shut);
  EXPECT_DOUBLE_EQ(shut_governor.max_walltime_stretch(), 1.0);

  PowercapConfig mix;
  mix.policy = Policy::Mix;
  OnlineGovernor mix_governor(controller_, mix);
  EXPECT_GT(mix_governor.max_walltime_stretch(), 1.0);
  EXPECT_LT(mix_governor.max_walltime_stretch(), 1.6);
}

TEST_F(OnlineTest, PolicyFrequencyRanges) {
  OnlineGovernor dvfs(controller_, dvfs_config());
  EXPECT_EQ(dvfs.min_allowed_freq(), 0u);

  PowercapConfig mix;
  mix.policy = Policy::Mix;
  OnlineGovernor mix_governor(controller_, mix);
  EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(mix_governor.min_allowed_freq()), 2.0);

  PowercapConfig idle;
  idle.policy = Policy::Idle;
  OnlineGovernor idle_governor(controller_, idle);
  EXPECT_EQ(idle_governor.min_allowed_freq(), cl_.frequencies().max_index());
}


// --- Algorithm 2 against a brute-force reference ----------------------------

constexpr double kEps = 1e-6;

// Algorithm 2 re-derived level by level: the cap active now from a scan of
// the book, then per frequency one interval query over the stretched span,
// pricing every overlapped future window afresh (f* from a governor with an
// empty table, the Projection figure from the live governor's bookkeeping).
std::optional<cluster::FreqIndex> reference_admission_freq(
    const OnlineGovernor& governor, rjms::Controller& controller,
    const PowercapConfig& config, double node_count, sim::Duration walltime,
    double degmin) {
  const rjms::ReservationBook& book = controller.reservations();
  const cluster::PowerModel& pm = controller.cluster().power_model();
  const sim::Time now = controller.simulator().now();
  double cap_now = std::numeric_limits<double>::infinity();
  for (const rjms::Reservation& r : book.all()) {
    if (r.kind == rjms::ReservationKind::Powercap && r.active_at(now)) {
      cap_now = std::min(cap_now, r.watts);
    }
  }
  const OnlineGovernor fresh(controller, config);
  for (cluster::FreqIndex f = governor.max_allowed_freq() + 1;
       f-- > governor.min_allowed_freq();) {
    auto eff_walltime = static_cast<sim::Duration>(std::llround(
        static_cast<double>(walltime) * governor.degradation().factor(f, degmin)));
    sim::Time span_end = now + eff_walltime;
    double delta = node_count * (pm.frequencies().watts(f) - pm.idle_watts());
    if (controller.cluster().watts() + delta > cap_now + kEps) continue;
    bool fits = true;
    book.for_each_overlapping(
        rjms::ReservationKind::Powercap, now, span_end, [&](const rjms::Reservation& cap) {
          if (!fits || cap.start <= now) return;
          if (config.admission == AdmissionMode::Projection) {
            if (governor.projected_watts_at(cap) + delta > cap.watts + kEps) fits = false;
            return;
          }
          std::optional<cluster::FreqIndex> f_star = fresh.optimal_window_freq(cap);
          if (f_star.has_value()) {
            if (f > *f_star) fits = false;
          } else if (config.admission == AdmissionMode::PaperLiveStrict) {
            fits = false;
          } else if (f > governor.min_allowed_freq()) {
            fits = false;
          }
        });
    if (fits) return f;
  }
  return std::nullopt;
}

std::optional<cluster::FreqIndex> admitted_freq(OnlineGovernor& governor,
                                                const rjms::Job& job,
                                                std::int32_t width) {
  std::vector<cluster::NodeId> nodes(static_cast<std::size_t>(width));
  std::iota(nodes.begin(), nodes.end(), 0);
  auto admission = governor.admit(job, nodes);
  if (!admission.has_value()) return std::nullopt;
  return admission->freq;
}

rjms::Job probe_job(std::int64_t id, sim::Duration walltime, std::string app = "") {
  rjms::Job job;
  job.request = make_request(id, 16, walltime / 2, walltime, std::move(app));
  return job;
}

struct VerdictTally {
  int rejected = 0;
  int at_max = 0;
  int lowered = 0;
};

// One seeded random book on a 1-rack machine, probed at now = 3 000 s.
// The book always holds the edges the single-walk admission must get
// right: two overlapping active caps (one open-ended), a window starting
// exactly at now, an open-ended future window, a window that ended exactly
// at now and switch-off plans over the future windows. Probes include zero
// walltime and spans ending exactly at a window start. The simulator then
// advances across window starts and ends, landing exactly on some and
// strictly between others, and probes again: the book's memo of the caps
// active at `now` must follow every boundary.
void check_random_book(Policy policy, AdmissionMode mode, std::uint64_t seed,
                       VerdictTally& tally) {
  SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(policy) << " mode "
                                  << static_cast<int>(mode) << " seed " << seed);
  util::Rng rng(seed);
  sim::Simulator sim;
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(1);
  rjms::Controller controller(sim, cl, fcfs_config());
  PowercapConfig config;
  config.policy = policy;
  config.admission = mode;
  config.default_degmin = rng.uniform(1.0, 2.3);
  config.audit_admission_cache = true;
  OnlineGovernor governor(controller, config);
  controller.set_governor(&governor);
  controller.add_observer(&governor);

  const sim::Time now = sim::seconds(3000);
  auto random_watts = [&] { return rng.uniform(14000.0, 38000.0); };
  auto add_switch_off = [&](sim::Time start, sim::Time end) {
    std::vector<cluster::NodeId> nodes;
    for (cluster::NodeId n = 0; n < cl.topology().total_nodes(); ++n) {
      if (rng.chance(0.2)) nodes.push_back(n);
    }
    if (nodes.empty()) nodes.push_back(0);
    auto n = static_cast<double>(nodes.size());
    double saving = n * (cluster::curie::kIdleWatts - cluster::curie::kDownWatts) +
                    rng.uniform(0.0, 500.0);
    controller.add_switch_off_reservation(start, end, std::move(nodes), saving,
                                          /*permissive=*/true);
  };
  controller.add_powercap_reservation(sim::seconds(500), now, random_watts());
  controller.add_powercap_reservation(now - sim::seconds(rng.uniform_int(1, 2000)),
                                      now + sim::seconds(rng.uniform_int(1, 4000)),
                                      rng.uniform(22000.0, 40000.0));
  controller.add_powercap_reservation(now - sim::seconds(rng.uniform_int(1, 2000)),
                                      sim::kTimeMax, rng.uniform(22000.0, 40000.0));
  controller.add_powercap_reservation(now, now + sim::seconds(rng.uniform_int(1, 3000)),
                                      random_watts());
  std::vector<sim::Time> future_starts;
  for (int w = 0; w < 5; ++w) {
    sim::Time start = now + sim::seconds(rng.uniform_int(1, 20000));
    sim::Time end = w == 0 ? sim::kTimeMax : start + sim::seconds(rng.uniform_int(1, 6000));
    controller.add_powercap_reservation(start, end, random_watts());
    future_starts.push_back(start);
    if (rng.chance(0.7)) add_switch_off(start - sim::seconds(rng.uniform_int(0, 600)), end);
  }

  // Jobs that start before `now` put live watts and persisting surplus
  // into the projection.
  for (std::int64_t id = 1; id <= 12; ++id) {
    sim::Duration runtime = sim::seconds(rng.uniform_int(100, 9000));
    controller.submit(make_request(id, 16 * rng.uniform_int(1, 20), runtime,
                                   runtime + sim::seconds(rng.uniform_int(0, 9000))));
  }
  sim.run_until(now);

  const std::vector<std::string> apps = {"", "linpack", "stream", "gromacs", "imb"};
  std::int64_t next_id = 1000;
  auto probe = [&](sim::Duration walltime) {
    rjms::Job job = probe_job(next_id++, walltime,
                              apps[static_cast<std::size_t>(rng.uniform_int(0, 4))]);
    auto width = static_cast<std::int32_t>(rng.uniform_int(1, 90));
    std::optional<cluster::FreqIndex> expected = reference_admission_freq(
        governor, controller, config, width, walltime, governor.degmin_for(job));
    std::optional<cluster::FreqIndex> got = admitted_freq(governor, job, width);
    EXPECT_EQ(got, expected) << "walltime " << walltime << " width " << width;
    if (!got.has_value()) {
      ++tally.rejected;
    } else if (*got == governor.max_allowed_freq()) {
      ++tally.at_max;
    } else {
      ++tally.lowered;
    }
  };
  auto probe_all = [&] {
    probe(0);
    for (sim::Time start : future_starts) {
      if (start > sim.now()) probe(start - sim.now());  // span ends at start
    }
    for (int i = 0; i < 24; ++i) probe(sim::seconds(rng.uniform_int(1, 25000)));
  };
  probe_all();
  // Move the book at the same instant: new switch-off plans and a new
  // window reprice f* and the overlapped-window set.
  add_switch_off(future_starts[1], future_starts[1] + sim::seconds(3000));
  sim::Time late = now + sim::seconds(rng.uniform_int(1, 15000));
  controller.add_powercap_reservation(late, late + sim::seconds(2000), random_watts());
  future_starts.push_back(late);
  probe_all();

  // Advance across cap boundaries: land exactly on some, stop strictly
  // between others.
  std::vector<sim::Time> boundaries;
  for (const rjms::Reservation& r : controller.reservations().all()) {
    if (r.kind != rjms::ReservationKind::Powercap) continue;
    for (sim::Time b : {r.start, r.end}) {
      if (b > now && b != sim::kTimeMax) boundaries.push_back(b);
    }
  }
  std::sort(boundaries.begin(), boundaries.end());
  for (std::size_t i = 0; i < boundaries.size(); i += 2) {
    sim.run_until(boundaries[i]);
    probe_all();
    if (i + 1 < boundaries.size() && boundaries[i + 1] > boundaries[i] + 1) {
      sim.run_until(rng.uniform_int(boundaries[i] + 1, boundaries[i + 1] - 1));
      probe_all();
    }
  }
}

TEST(OnlineReferenceTest, AdmissionMatchesBruteForceOnRandomBooks) {
  VerdictTally tally;
  for (Policy policy : {Policy::Mix, Policy::Dvfs, Policy::Shut}) {
    for (AdmissionMode mode : {AdmissionMode::Projection, AdmissionMode::PaperLive,
                               AdmissionMode::PaperLiveStrict}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        check_random_book(policy, mode, seed, tally);
      }
    }
  }
  // The books must exercise every outcome, or the comparison proves little.
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.at_max, 0);
  EXPECT_GT(tally.lowered, 0);
}

// The PaperLive walk folds windows into its running minimum f* as the level
// falls, which is sound only because each lower level's span reaches every
// window a higher level's does.
TEST_F(OnlineTest, StretchedSpansGrowAsFrequencyFalls) {
  std::vector<double> degmins = {1.0, PowercapConfig{}.default_degmin, 2.3};
  for (const apps::AppModel& app : apps::measured_apps()) degmins.push_back(app.degmin());
  PowercapConfig config = dvfs_config();
  OnlineGovernor governor(controller_, config);
  ASSERT_LT(governor.min_allowed_freq(), governor.max_allowed_freq());
  for (double degmin : degmins) {
    for (sim::Duration walltime :
         {sim::Duration{0}, sim::Duration{1}, sim::Duration{7}, sim::seconds(1),
          sim::minutes(17) + 3, sim::hours(24), sim::hours(72) + 1}) {
      sim::Duration previous = 0;
      for (cluster::FreqIndex f = governor.max_allowed_freq() + 1;
           f-- > governor.min_allowed_freq();) {
        sim::Duration span = stretched(walltime, governor.degradation().factor(f, degmin));
        EXPECT_GE(span, previous) << "degmin " << degmin << " walltime " << walltime
                                  << " level " << f;
        previous = span;
      }
    }
  }
}

// --- f* table staleness -------------------------------------------------------

TEST_F(OnlineTest, WindowFreqFollowsEachSwitchOffPlanAdded) {
  PowercapConfig config = dvfs_config();
  OnlineGovernor governor(controller_, config);
  // f* = 1.2 GHz with every node computing (FutureWindowLowersFrequencyAhead).
  rjms::ReservationId cap_id = controller_.add_powercap_reservation(
      sim::seconds(1000), sim::seconds(2000), 20000.0);
  rjms::Job job = probe_job(1, sim::seconds(1500));
  std::optional<cluster::FreqIndex> before = admitted_freq(governor, job, 60);
  ASSERT_TRUE(before.has_value());
  EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(*before), 1.2);

  // Planning 30 nodes off for the window leaves the 20 kW budget to 60.
  std::vector<cluster::NodeId> off(30);
  std::iota(off.begin(), off.end(), 60);
  controller_.add_switch_off_reservation(
      sim::seconds(900), sim::seconds(2100), off,
      30.0 * (cluster::curie::kIdleWatts - cluster::curie::kDownWatts));
  // A copy: the adds below may move the book's storage.
  const rjms::Reservation cap = controller_.reservations().find(cap_id);
  std::optional<cluster::FreqIndex> raised = OnlineGovernor(controller_, config)
                                                 .optimal_window_freq(cap);
  ASSERT_TRUE(raised.has_value());
  ASSERT_GT(*raised, *before);
  EXPECT_EQ(governor.optimal_window_freq(cap), raised);
  EXPECT_EQ(admitted_freq(governor, job, 60), raised);

  // Ten more nodes off re-price the window again.
  std::vector<cluster::NodeId> more(10);
  std::iota(more.begin(), more.end(), 50);
  controller_.add_switch_off_reservation(
      sim::seconds(900), sim::seconds(2100), more,
      10.0 * (cluster::curie::kIdleWatts - cluster::curie::kDownWatts));
  std::optional<cluster::FreqIndex> raised_again = OnlineGovernor(controller_, config)
                                                       .optimal_window_freq(cap);
  ASSERT_TRUE(raised_again.has_value());
  ASSERT_GT(*raised_again, *raised);
  EXPECT_EQ(governor.optimal_window_freq(cap), raised_again);
  EXPECT_EQ(admitted_freq(governor, job, 50), raised_again);
}

TEST_F(OnlineTest, AdmissionFollowsCapWindowAnnouncedBetweenAdmissions) {
  OnlineGovernor governor(controller_, dvfs_config());
  rjms::Job job = probe_job(1, sim::seconds(1500));
  EXPECT_EQ(admitted_freq(governor, job, 90), cl_.frequencies().max_index());

  controller_.add_powercap_reservation(sim::seconds(1000), sim::seconds(2000), 20000.0);
  std::optional<cluster::FreqIndex> clamped = admitted_freq(governor, job, 90);
  ASSERT_TRUE(clamped.has_value());
  EXPECT_DOUBLE_EQ(cl_.frequencies().ghz(*clamped), 1.2);

  // A window past the job's longest stretched span changes nothing.
  controller_.add_powercap_reservation(sim::hours(10), sim::hours(11), 15000.0);
  EXPECT_EQ(admitted_freq(governor, job, 90), clamped);
}

// --- Projection bookkeeping across passed windows -----------------------------

TEST_F(OnlineTest, ProjectionAfterPassedWindowsMatchesFreshFoldIn) {
  PowercapConfig config = dvfs_config();
  config.admission = AdmissionMode::Projection;
  config.dynamic_dvfs = true;  // window starts and ends rescale running jobs
  PowercapManager manager(controller_, config);
  for (int w = 0; w < 4; ++w) {
    manager.add_powercap(sim::seconds(1000 + 2000 * w), sim::seconds(2000 + 2000 * w),
                         30000.0);
  }
  // A long job projected against every window from t = 0, then waves of
  // jobs starting and ending (some early) while the windows pass.
  controller_.submit(make_request(1, 160, sim::seconds(7500), sim::seconds(8000)));
  std::int64_t id = 2;
  for (sim::Time wave : {sim::seconds(0), sim::seconds(2500), sim::seconds(4800)}) {
    sim_.run_until(wave);
    for (int j = 0; j < 12; ++j, ++id) {
      sim::Duration runtime = sim::seconds(300 + 97 * id % 2500);
      controller_.submit(make_request(id, 16 * (1 + id % 9), runtime,
                                      runtime + sim::seconds(37 * id % 2500)));
    }
  }
  sim_.run_until(sim::seconds(6500));  // the first three windows have passed
  ASSERT_GT(controller_.running_count(), 1u);

  const rjms::Reservation* last = nullptr;
  for (const rjms::Reservation& r : controller_.reservations().all()) {
    if (r.kind == rjms::ReservationKind::Powercap) last = &r;
  }
  ASSERT_NE(last, nullptr);
  ASSERT_GT(last->start, sim_.now());
  ASSERT_GT(controller_.running_by_end().rbegin()->est_end, last->start);  // persists

  // A fresh governor folds the running jobs in from scratch; it saw no job
  // start, so its idle baseline still holds their busy surplus.
  const cluster::PowerModel& pm = cl_.power_model();
  double running_surplus = 0.0;
  for (const rjms::Controller::RunningJob& running : controller_.running_by_end()) {
    const rjms::Job& job = *running.job;
    running_surplus += static_cast<double>(job.nodes.size()) *
                       (pm.frequencies().watts(job.freq) - pm.idle_watts());
  }
  OnlineGovernor fresh(controller_, config);
  EXPECT_NEAR(manager.governor().projected_watts_at(*last),
              fresh.projected_watts_at(*last) - running_surplus, 1e-6);
}

}  // namespace
}  // namespace ps::core
