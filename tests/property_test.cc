// Parameterized property sweep: for every (policy, lambda) combination the
// core invariants must hold — caps never violated by enforcing policies,
// bounded utilization, consistent job accounting, deterministic replay.
// (the replay additionally audits incremental-vs-recomputed power, and an
// observer audits every scheduling pass's order against a full sort.)
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "core/experiment.h"
#include "core/replay.h"
#include "workload/job_source.h"

namespace ps::core {
namespace {

struct Case {
  Policy policy;
  double lambda;
  AdmissionMode admission = AdmissionMode::PaperLive;
  bool dynamic_dvfs = false;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = to_string(info.param.policy);
  name += "_";
  name += std::to_string(static_cast<int>(info.param.lambda * 100));
  if (info.param.admission != AdmissionMode::PaperLive) {
    name += info.param.admission == AdmissionMode::Projection ? "_proj" : "_strict";
  }
  if (info.param.dynamic_dvfs) name += "_dyn";
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
    config.cap_lambda = c.lambda;
    config.powercap.admission = c.admission;
    config.powercap.dynamic_dvfs = c.dynamic_dvfs;
    return config;
  }

  // A case's result, plus the controller's running and pending counts
  // read before finish.
  struct Audited {
    ScenarioResult result;
    std::size_t running = 0;
    std::size_t pending = 0;
  };

  const ScenarioResult& result() const { return audited().result; }

  const Audited& audited() const {
    static std::map<std::tuple<int, int, int, int>, Audited> cache;
    Case c = GetParam();
    auto key = std::make_tuple(static_cast<int>(c.policy),
                               static_cast<int>(c.lambda * 100),
                               static_cast<int>(c.admission),
                               static_cast<int>(c.dynamic_dvfs));
    auto it = cache.find(key);
    if (it == cache.end()) it = cache.emplace(key, run_audited(config_for(c))).first;
    return it->second;
  }

  // run_scenario's wiring for a generated workload, plus the pass audit.
  static Audited run_audited(const ScenarioConfig& config) {
    const workload::GeneratorParams& params = *config.custom_workload;
    workload::VectorJobSource source(workload::generate(params, config.seed));
    Replay replay(config, source, params.span, 0);
    PassOrderAudit audit(replay.controller());
    replay.controller().add_observer(&audit);
    replay.advance_to(params.span);
    Audited audited;
    audited.running = replay.controller().running_count();
    audited.pending = replay.controller().pending_count();
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
        Case{Policy::Mix, 0.4, AdmissionMode::PaperLive, true}),
    case_name);

}  // namespace
}  // namespace ps::core
