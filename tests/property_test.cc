// Parameterized property sweep: for every (policy, lambda) combination the
// core invariants must hold — caps never violated by enforcing policies,
// bounded utilization, consistent job accounting, deterministic replay.
// (the replay additionally audits incremental-vs-recomputed power, an
// observer audits every scheduling pass's order against a full sort, and
// another audits what the cap-edge actions on running jobs leave behind.)
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/online.h"
#include "core/replay.h"
#include "workload/job_source.h"

namespace ps::core {
namespace {

struct Case {
  Policy policy;
  double lambda;
  AdmissionMode admission = AdmissionMode::PaperLive;
  bool dynamic_dvfs = false;
  bool kill_on_overcap = false;
  /// Two windows announced as they start (unwarned): one at `lambda` from
  /// 40 to 80 min, one at 70% from 60 to 100 min, so the first ends under
  /// a cap still active. Otherwise one centred advance window at `lambda`.
  bool unwarned = false;
};

/// An unwarned-window case at 50% for the over-cap actions.
Case unwarned(Policy policy, bool kill, bool dynamic) {
  return Case{policy, 0.5, AdmissionMode::PaperLive, dynamic, kill, true};
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = to_string(info.param.policy);
  name += "_";
  name += std::to_string(static_cast<int>(info.param.lambda * 100));
  if (info.param.admission != AdmissionMode::PaperLive) {
    name += info.param.admission == AdmissionMode::Projection ? "_proj" : "_strict";
  }
  if (info.param.dynamic_dvfs) name += "_dyn";
  if (info.param.kill_on_overcap) name += "_kill";
  if (info.param.unwarned) name += "_unwarned";
  return name;
}

// Checks after every scheduling pass that the band merge walked the
// pending queue in the order of a full sort.
struct PassOrderAudit : rjms::ControllerObserver {
  explicit PassOrderAudit(const rjms::Controller& controller) : controller(controller) {}
  void on_pass(sim::Time) override {
    ++passes;
    jobs += controller.audit_pass_order();
  }
  const rjms::Controller& controller;
  std::size_t passes = 0;
  std::size_t jobs = 0;
};

// Checks what the manager's actions on running jobs leave behind, at the
// instant they act. Right after each window start: in kill mode the
// cluster draws no more than the window's cap or runs nothing, and with
// dynamic DVFS no running job is above the window's floor (fmax when the
// policy does not scale). After every raise: the cluster draws no more
// than the cap active then. Failures are collected as messages.
class EdgeAudit : public rjms::ControllerObserver, private sim::EventHandler {
 public:
  EdgeAudit(Replay& replay, const ScenarioConfig& config)
      : controller_(replay.controller()),
        config_(config.powercap),
        floors_(controller_, config.powercap) {
    // An advance window's start event was scheduled while the replay was
    // wired, in the setup band: a probe scheduled now in that band fires
    // right after it. An unwarned window's start event is scheduled when
    // its announcement fires, in the normal band: the probe then defers
    // into that band, right behind it.
    for (const CapWindow& window : config.cap_windows) {
      replay.simulator().schedule_at_band(window.start, sim::EventBand::kSetup, *this,
                                          window.announce >= 0 ? kDefer : kCheck);
    }
  }

  void on_job_rescaled(const rjms::Job& job, cluster::FreqIndex old_freq,
                       sim::Time) override {
    if (job.freq <= old_freq) return;
    ++raises;
    sim::Time now = controller_.simulator().now();
    double cap = controller_.reservations().cap_at(now);
    if (controller_.cluster().watts() > cap + 1e-6) {
      std::ostringstream out;
      out << "raise of job " << job.id() << " at t=" << now << " leaves "
          << controller_.cluster().watts() << " W over the cap " << cap << " W";
      failures.push_back(out.str());
    }
  }

  std::size_t window_starts = 0;
  std::size_t raises = 0;
  std::vector<std::string> failures;

 private:
  enum Kind : std::uint8_t { kDefer, kCheck };

  void on_event(const sim::Event& event) override {
    if (event.kind == kDefer) {
      controller_.simulator().schedule_at(event.time, *this, kCheck);
      return;
    }
    for (const rjms::Reservation& cap : controller_.reservations().all()) {
      if (cap.kind == rjms::ReservationKind::Powercap && cap.start == event.time) {
        check_window_start(cap);
      }
    }
  }

  void check_window_start(const rjms::Reservation& cap) {
    ++window_starts;
    double watts = controller_.cluster().watts();
    if (config_.kill_on_overcap && watts > cap.watts + 1e-6 &&
        controller_.running_count() > 0) {
      std::ostringstream out;
      out << "kill pass at t=" << cap.start << " leaves " << watts << " W over the cap "
          << cap.watts << " W with " << controller_.running_count() << " jobs running";
      failures.push_back(out.str());
    }
    if (!config_.dynamic_dvfs) return;
    cluster::FreqIndex floor =
        floors_.optimal_window_freq(cap).value_or(floors_.min_allowed_freq());
    for (const rjms::Controller::RunningJob& running : controller_.running_by_end()) {
      if (running.job->freq > floor) {
        std::ostringstream out;
        out << "job " << running.id << " runs at level " << running.job->freq
            << " above the floor " << floor << " after the start at t=" << cap.start;
        failures.push_back(out.str());
      }
    }
  }

  rjms::Controller& controller_;
  PowercapConfig config_;
  OnlineGovernor floors_;  ///< prices each window's floor; never attached
};

class PolicySweep : public ::testing::TestWithParam<Case> {
 protected:
  static ScenarioConfig config_for(const Case& c) {
    workload::GeneratorParams params =
        workload::params_for(workload::Profile::MedianJob);
    params.name = "property";
    params.span = sim::hours(2);
    params.job_count = 2300;  // ~2x capacity demand over the 2 h span
    params.w_huge = 0.0;      // one huge job would dwarf the 2-rack machine
    ScenarioConfig config;
    config.custom_workload = params;
    config.racks = 2;
    config.seed = 4242;
    config.powercap.policy = c.policy;
    if (c.unwarned) {
      config.cap_windows = {{c.lambda, sim::minutes(40), sim::minutes(40), sim::minutes(40)},
                            {0.7, sim::minutes(60), sim::minutes(40), sim::minutes(60)}};
    } else {
      config.cap_lambda = c.lambda;
    }
    config.powercap.admission = c.admission;
    config.powercap.dynamic_dvfs = c.dynamic_dvfs;
    config.powercap.kill_on_overcap = c.kill_on_overcap;
    return config;
  }

  // A case's result, plus the controller's running and pending counts
  // read before finish, and what the edge audit saw.
  struct Audited {
    ScenarioResult result;
    std::size_t running = 0;
    std::size_t pending = 0;
    std::size_t window_starts = 0;
    std::size_t raises = 0;
    std::vector<std::string> edge_failures;
  };

  const ScenarioResult& result() const { return audited().result; }

  const Audited& audited() const {
    static std::map<std::tuple<int, int, int, bool, bool, bool>, Audited> cache;
    Case c = GetParam();
    auto key = std::make_tuple(static_cast<int>(c.policy),
                               static_cast<int>(c.lambda * 100),
                               static_cast<int>(c.admission), c.dynamic_dvfs,
                               c.kill_on_overcap, c.unwarned);
    auto it = cache.find(key);
    if (it == cache.end()) it = cache.emplace(key, run_audited(config_for(c))).first;
    return it->second;
  }

  // run_scenario's wiring for a generated workload, plus the pass and
  // edge audits.
  static Audited run_audited(const ScenarioConfig& config) {
    const workload::GeneratorParams& params = *config.custom_workload;
    workload::VectorJobSource source(workload::generate(params, config.seed));
    Replay replay(config, source, params.span, 0);
    PassOrderAudit audit(replay.controller());
    replay.controller().add_observer(&audit);
    EdgeAudit edges(replay, config);
    replay.controller().add_observer(&edges);
    replay.advance_to(params.span);
    Audited audited;
    audited.running = replay.controller().running_count();
    audited.pending = replay.controller().pending_count();
    audited.window_starts = edges.window_starts;
    audited.raises = edges.raises;
    audited.edge_failures = std::move(edges.failures);
    audited.result = replay.finish(params.span);
    EXPECT_GT(audit.passes, 0u);
    EXPECT_GT(audit.jobs, audit.passes);
    return audited;
  }
};

TEST_P(PolicySweep, CapEnforcementMatchesAdmissionMode) {
  const ScenarioResult& r = result();
  Case c = GetParam();
  if (c.policy == Policy::None) {
    GTEST_SKIP() << "None policy does not enforce";
  }
  EXPECT_LE(r.summary.max_watts, r.max_cluster_watts + 1e-6);
  if (c.admission == AdmissionMode::Projection) {
    // Projection mode guarantees the cap is never exceeded, ever.
    EXPECT_DOUBLE_EQ(r.summary.cap_violation_seconds, 0.0);
  } else {
    // Paper semantics: jobs admitted before the window may carry power into
    // it ("no extreme actions are taken with the running jobs"); the excess
    // can only decay. Violations are bounded by the window length.
    EXPECT_LE(r.summary.cap_violation_seconds,
              sim::to_seconds(r.cap_end - r.cap_start) + 1.0);
  }
}

TEST_P(PolicySweep, PowerInsideWindowOnlyDecaysWhileOverCap) {
  // Strong PaperLive invariant: while the cluster is above the active cap
  // no new job may start, so the peak inside the window is the carried-in
  // power at window start.
  const ScenarioResult& r = result();
  Case c = GetParam();
  if (c.policy == Policy::None || c.lambda >= 1.0) GTEST_SKIP();
  double at_start = -1.0;
  double peak = 0.0;
  for (const metrics::Sample& s : r.samples) {
    if (s.t < r.cap_start || s.t >= r.cap_end) continue;
    if (at_start < 0.0) at_start = s.watts;
    peak = std::max(peak, s.watts);
  }
  if (at_start < 0.0) GTEST_SKIP() << "no samples inside the window";
  EXPECT_LE(peak, std::max(at_start, r.cap_watts) + 1e-6);
}

TEST_P(PolicySweep, UtilizationBounded) {
  const ScenarioResult& r = result();
  EXPECT_GE(r.summary.utilization, 0.0);
  EXPECT_LE(r.summary.utilization, 1.0 + 1e-9);
  EXPECT_GT(r.summary.work_core_seconds, 0.0);
}

TEST_P(PolicySweep, JobAccountingConsistent) {
  const Audited& a = audited();
  const rjms::Controller::Stats& stats = a.result.stats;
  EXPECT_EQ(stats.submitted, 2300u);
  // Every submitted job ended, was rejected, or is still running or
  // pending when the replay stops.
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.killed + stats.rejected + a.running + a.pending);
  EXPECT_LE(a.result.summary.launched_jobs, stats.started);
}

TEST_P(PolicySweep, EnergyPositiveAndBounded) {
  const ScenarioResult& r = result();
  double span_seconds = sim::to_seconds(r.summary.to - r.summary.from);
  EXPECT_GT(r.summary.energy_joules, 0.0);
  EXPECT_LE(r.summary.energy_joules, r.max_cluster_watts * span_seconds * (1 + 1e-9));
  EXPECT_LE(r.summary.mean_watts, r.summary.max_watts + 1e-9);
}

TEST_P(PolicySweep, SeriesMonotonicTimes) {
  const ScenarioResult& r = result();
  for (std::size_t i = 1; i < r.samples.size(); ++i) {
    ASSERT_LT(r.samples[i - 1].t, r.samples[i].t);
  }
  // Node counts always total the machine.
  std::int32_t total_nodes = 2 * 5 * 18;
  for (const metrics::Sample& s : r.samples) {
    std::int32_t busy = 0;
    for (auto b : s.busy_by_freq) busy += b;
    EXPECT_EQ(busy + s.idle_nodes + s.off_nodes + s.transitioning_nodes, total_nodes);
  }
}

TEST_P(PolicySweep, CapBindsDuringWindowUnderProjection) {
  const ScenarioResult& r = result();
  Case c = GetParam();
  if (c.policy == Policy::None || c.lambda >= 1.0 ||
      c.admission != AdmissionMode::Projection) {
    GTEST_SKIP() << "per-sample cap guarantee only under Projection admission";
  }
  for (const metrics::Sample& s : r.samples) {
    if (s.t >= r.cap_start && s.t < r.cap_end) {
      ASSERT_LE(s.watts, r.cap_watts + 0.5) << "at t=" << s.t;
    }
  }
}

TEST_P(PolicySweep, CapEdgeActionsKeepTheirGuarantees) {
  const Audited& a = audited();
  Case c = GetParam();
  if (!c.unwarned) GTEST_SKIP() << "edge actions are audited on the unwarned cases";
  EXPECT_EQ(a.window_starts, 2u);
  for (const std::string& failure : a.edge_failures) ADD_FAILURE() << failure;
  if (c.dynamic_dvfs && c.policy != Policy::Shut) {
    EXPECT_GT(a.raises, 0u) << "no raise at a window end: the raise check saw nothing";
  }
  if (c.kill_on_overcap && !c.dynamic_dvfs) {
    EXPECT_GT(a.result.stats.killed, 0u) << "the kill pass had nothing to do";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndCaps, PolicySweep,
    ::testing::Values(
        Case{Policy::None, 1.0}, Case{Policy::Shut, 0.8}, Case{Policy::Shut, 0.6},
        Case{Policy::Shut, 0.4}, Case{Policy::Dvfs, 0.8}, Case{Policy::Dvfs, 0.6},
        Case{Policy::Dvfs, 0.4}, Case{Policy::Mix, 0.8}, Case{Policy::Mix, 0.6},
        Case{Policy::Mix, 0.4}, Case{Policy::Idle, 0.6}, Case{Policy::Auto, 0.6},
        Case{Policy::Auto, 0.4},
        Case{Policy::Shut, 0.6, AdmissionMode::Projection},
        Case{Policy::Shut, 0.4, AdmissionMode::Projection},
        Case{Policy::Dvfs, 0.6, AdmissionMode::Projection},
        Case{Policy::Dvfs, 0.4, AdmissionMode::Projection},
        Case{Policy::Mix, 0.6, AdmissionMode::Projection},
        Case{Policy::Mix, 0.4, AdmissionMode::Projection},
        Case{Policy::Dvfs, 0.4, AdmissionMode::PaperLiveStrict},
        Case{Policy::Mix, 0.4, AdmissionMode::PaperLiveStrict},
        Case{Policy::Dvfs, 0.6, AdmissionMode::PaperLive, true},
        Case{Policy::Mix, 0.4, AdmissionMode::PaperLive, true},
        unwarned(Policy::Shut, true, false), unwarned(Policy::Shut, false, true),
        unwarned(Policy::Shut, true, true), unwarned(Policy::Dvfs, true, false),
        unwarned(Policy::Dvfs, false, true), unwarned(Policy::Dvfs, true, true),
        unwarned(Policy::Mix, true, false), unwarned(Policy::Mix, false, true),
        unwarned(Policy::Mix, true, true)),
    case_name);

}  // namespace
}  // namespace ps::core
