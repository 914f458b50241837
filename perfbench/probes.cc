#include "probes.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "alloc_count.h"
#include "cluster/curie.h"
#include "core/fingerprint.h"
#include "core/powercap_manager.h"
#include "core/submission_pump.h"
#include "metrics/summary.h"
#include "metrics/timeseries.h"
#include "rjms/controller.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "workload/job_source.h"

namespace perfbench {
namespace {

using namespace ps;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times and counts the allocations of every call into the workload layer.
class TimedSource final : public workload::JobSource {
 public:
  TimedSource(workload::JobSource& inner, LayerTotals& totals)
      : inner_(inner), totals_(totals) {}

  bool next_chunk(sim::Time until, std::vector<workload::JobRequest>& out) override {
    const std::uint64_t allocs = alloc_count();
    const Clock::time_point start = Clock::now();
    const bool more = inner_.next_chunk(until, out);
    const double seconds = since(start);
    totals_.next_chunk_s += seconds;
    if (in_run) totals_.next_chunk_in_run_s += seconds;
    totals_.source_allocs += alloc_count() - allocs;
    return more;
  }

  sim::Time last_submit_hint() override {
    const Clock::time_point start = Clock::now();
    const sim::Time hint = inner_.last_submit_hint();
    totals_.hint_s += since(start);
    return hint;
  }

  void rewind() override { inner_.rewind(); }

  bool in_run = false;

 private:
  workload::JobSource& inner_;
  LayerTotals& totals_;
};

/// Times every call through the governor interface (Alg 2).
class TimedGovernor final : public rjms::PowerGovernor {
 public:
  TimedGovernor(rjms::PowerGovernor& inner, LayerTotals& totals)
      : inner_(inner), totals_(totals) {}

  std::optional<Admission> admit(const rjms::Job& job,
                                 const std::vector<cluster::NodeId>& nodes) override {
    const Clock::time_point start = Clock::now();
    std::optional<Admission> verdict = inner_.admit(job, nodes);
    totals_.admit_s += since(start);
    ++totals_.admit_calls;
    if (verdict) ++totals_.admit_ok;
    return verdict;
  }

  double max_walltime_stretch() const override { return inner_.max_walltime_stretch(); }

  bool admission_known_rejected(const rjms::Job& job, std::int32_t width) const override {
    const Clock::time_point start = Clock::now();
    const bool known = inner_.admission_known_rejected(job, width);
    totals_.admit_s += since(start);
    ++totals_.known_rejected_calls;
    return known;
  }

 private:
  rjms::PowerGovernor& inner_;
  LayerTotals& totals_;
};

/// Two observers registered around the Recorder: observers fire in
/// registration order, so start→stop brackets Recorder::on_state_change.
class RecorderClock {
 public:
  explicit RecorderClock(LayerTotals& totals) : start_(*this), stop_(*this), totals_(totals) {}
  RecorderClock(const RecorderClock&) = delete;
  RecorderClock& operator=(const RecorderClock&) = delete;

  rjms::ControllerObserver* before() { return &start_; }
  rjms::ControllerObserver* after() { return &stop_; }

 private:
  struct Start final : rjms::ControllerObserver {
    explicit Start(RecorderClock& clock) : clock(clock) {}
    void on_state_change(sim::Time) override {
      clock.allocs_ = alloc_count();
      clock.start_time_ = Clock::now();
    }
    RecorderClock& clock;
  };
  struct Stop final : rjms::ControllerObserver {
    explicit Stop(RecorderClock& clock) : clock(clock) {}
    void on_state_change(sim::Time) override {
      clock.totals_.record_s += since(clock.start_time_);
      clock.totals_.record_allocs += alloc_count() - clock.allocs_;
    }
    RecorderClock& clock;
  };

  Start start_;
  Stop stop_;
  LayerTotals& totals_;
  Clock::time_point start_time_{};
  std::uint64_t allocs_ = 0;
};

}  // namespace

void LayerTotals::add(const LayerTotals& o) {
  next_chunk_s += o.next_chunk_s;
  next_chunk_in_run_s += o.next_chunk_in_run_s;
  hint_s += o.hint_s;
  source_allocs += o.source_allocs;
  events_fired += o.events_fired;
  run_s += o.run_s;
  submitted += o.submitted;
  full_passes += o.full_passes;
  quick_attempts += o.quick_attempts;
  backfill_starts += o.backfill_starts;
  selector_fast_fails += o.selector_fast_fails;
  admission_fast_fails += o.admission_fast_fails;
  pending_max = std::max(pending_max, o.pending_max);
  pending_sum += o.pending_sum;
  pending_samples += o.pending_samples;
  admit_calls += o.admit_calls;
  admit_ok += o.admit_ok;
  known_rejected_calls += o.known_rejected_calls;
  admit_s += o.admit_s;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_carries += o.cache_carries;
  plan_s += o.plan_s;
  plans += o.plans;
  switched_off_nodes += o.switched_off_nodes;
  refills += o.refills;
  record_s += o.record_s;
  record_allocs += o.record_allocs;
  samples += o.samples;
  sample_bytes += o.sample_bytes;
  finalize_s += o.finalize_s;
  wall_s += o.wall_s;
}

ProbedRun run_probed(const core::ScenarioConfig& config) {
  const Clock::time_point run_start = Clock::now();
  ProbedRun run;
  LayerTotals& totals = run.layers;
  PS_CHECK_MSG(config.racks >= 1, "scenario: racks >= 1");

  // run_scenario's wiring order, with the decorators slotted in.
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(config.racks);
  sim::Simulator simulator;
  rjms::Controller controller(simulator, cl, config.controller);
  core::PowercapManager manager(controller, config.powercap);
  TimedGovernor governor(manager.governor(), totals);
  if (config.powercap.policy != core::Policy::None) controller.set_governor(&governor);
  RecorderClock recorder_clock(totals);
  controller.add_observer(recorder_clock.before());
  metrics::Recorder recorder(controller);
  controller.add_observer(recorder_clock.after());

  workload::GeneratorParams params = config.custom_workload
                                         ? *config.custom_workload
                                         : workload::params_for(config.profile);
  std::shared_ptr<workload::JobSource> inner = config.job_source;
  if (!inner) {
    std::vector<workload::JobRequest> jobs =
        config.trace_jobs ? *config.trace_jobs : workload::generate(params, config.seed);
    inner = std::make_shared<workload::VectorJobSource>(std::move(jobs));
  }
  TimedSource source(*inner, totals);
  source.rewind();
  const double width_scale =
      static_cast<double>(config.racks) / static_cast<double>(cluster::curie::kRacks);

  sim::Duration horizon = config.horizon;
  bool horizon_from_hint = false;
  if (horizon <= 0) {
    if (config.trace_jobs || config.job_source) {
      horizon_from_hint = true;
      const sim::Time last_submit = source.last_submit_hint();
      PS_CHECK_MSG(last_submit >= 0, "probed replay: source cannot bound the horizon");
      horizon = last_submit + sim::hours(1);
    } else {
      horizon = params.span;
    }
  }

  core::ScenarioResult& result = run.result;
  result.max_cluster_watts = cl.power_model().max_cluster_watts();
  result.total_cores = cl.topology().total_cores();
  if (!config.cap_windows.empty() && config.powercap.policy != core::Policy::None) {
    std::vector<core::PlanWindow> advance;
    for (const core::CapWindow& window : config.cap_windows) {
      if (window.announce >= 0) {
        throw std::runtime_error("probed replay: announce-typed cap windows unsupported");
      }
      const sim::Time start =
          window.start >= 0 ? window.start : (horizon - window.duration) / 2;
      const sim::Time end = window.duration > 0 ? start + window.duration : sim::kTimeMax;
      const double watts = manager.lambda_to_watts(window.lambda);
      result.windows.push_back({start, end, watts});
      advance.push_back({start, end, watts});
    }
    const Clock::time_point start = Clock::now();
    manager.add_powercap_schedule(advance);
    totals.plan_s += since(start);
  } else if (config.cap_lambda < 1.0 && config.powercap.policy != core::Policy::None) {
    const sim::Time start_time = config.cap_start >= 0
                                     ? config.cap_start
                                     : (horizon - config.cap_duration) / 2;
    const sim::Time end_time = start_time + config.cap_duration;
    const double watts = manager.lambda_to_watts(config.cap_lambda);
    const Clock::time_point start = Clock::now();
    manager.add_powercap(start_time, end_time, watts);
    totals.plan_s += since(start);
    result.windows.push_back({start_time, end_time, watts});
  }
  if (!result.windows.empty()) {
    result.cap_watts = result.windows.front().watts;
    result.cap_start = result.windows.front().start;
    result.cap_end = result.windows.front().end;
  }

  const sim::Duration chunk = config.submit_chunk > 0
                                  ? config.submit_chunk
                                  : (config.job_source ? core::kDefaultStreamChunk : 0);
  core::SubmissionPump pump(simulator, controller, source, horizon, chunk, width_scale);
  pump.prime();
  simulator.set_default_band(sim::EventBand::kNormal);

  // The clock in one-hour slices: the pending queue is sampled between them.
  source.in_run = true;
  for (sim::Time until = std::min<sim::Time>(sim::hours(1), horizon);;
       until = std::min<sim::Time>(until + sim::hours(1), horizon)) {
    const Clock::time_point start = Clock::now();
    simulator.run_until(until);
    totals.run_s += since(start);
    const std::uint64_t pending = controller.pending_count();
    totals.pending_max = std::max(totals.pending_max, pending);
    totals.pending_sum += static_cast<double>(pending);
    ++totals.pending_samples;
    if (until >= horizon) break;
  }
  source.in_run = false;

  const Clock::time_point finalize_start = Clock::now();
  if (horizon_from_hint) {
    PS_CHECK_MSG(pump.fully_drained(), "probed replay: source outlived its hint");
  }
  recorder.sample(horizon);
  const double drift = cl.watts() - cl.audit_watts();
  PS_CHECK_MSG(drift < 1e-6 && drift > -1e-6, "incremental power accounting drifted");
  totals.plans = manager.plans().size();
  for (const core::OfflinePlan& plan : manager.plans()) {
    totals.switched_off_nodes += plan.selection.nodes.size();
  }
  result.plans = manager.release_plans();
  if (!result.plans.empty()) {
    result.has_plan = true;
    result.plan = result.plans.front();
  }
  result.summary = metrics::summarize(recorder, controller, 0, horizon);
  result.stats = controller.stats();
  result.samples = recorder.samples();
  run.fingerprint = core::fingerprint(result);
  totals.finalize_s = since(finalize_start);

  // Job accounting: every submission started, was rejected, or is pending.
  const rjms::Controller::Stats& stats = controller.stats();
  if (stats.submitted != pump.submitted() ||
      stats.submitted != stats.started + stats.rejected + controller.pending_count()) {
    throw std::runtime_error("probed replay: job accounting mismatch");
  }

  totals.events_fired = simulator.fired_count();
  totals.submitted = stats.submitted;
  totals.full_passes = stats.full_passes;
  totals.quick_attempts = stats.quick_attempts;
  totals.backfill_starts = stats.backfill_starts;
  totals.selector_fast_fails = stats.selector_fast_fails;
  totals.admission_fast_fails = stats.admission_fast_fails;
  const core::OnlineGovernor::AdmissionCacheStats& cache =
      manager.governor().admission_cache_stats();
  totals.cache_hits = cache.hits;
  totals.cache_misses = cache.misses;
  totals.cache_carries = cache.carries;
  totals.refills = pump.refills();
  totals.samples = result.samples.size();
  for (const metrics::Sample& sample : result.samples) {
    totals.sample_bytes +=
        sizeof(metrics::Sample) + sample.busy_by_freq.capacity() * sizeof(std::int32_t);
  }
  totals.wall_s = since(run_start);
  return run;
}

}  // namespace perfbench
