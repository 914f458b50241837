#include "core/replay.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "cluster/curie.h"
#include "obs/registry.h"
#include "util/check.h"

namespace ps::core {

Replay::Replay(const ScenarioConfig& config, workload::JobSource& source,
               sim::Time horizon, sim::Duration default_chunk)
    : cluster_(cluster::curie::make_scaled_cluster(config.racks)),
      controller_(simulator_, cluster_, config.controller),
      manager_(controller_, config.powercap),
      recorder_(controller_),
      // Bounded at "nothing pulled yet": the first advance_to does the
      // first pull, so a live stream is never read past its watermark.
      // Jobs are generated at full-Curie calibration; the pump scales
      // widths chunk by chunk so a scaled-down run keeps the same shape.
      pump_(simulator_, controller_, source, /*horizon=*/-1,
            config.submit_chunk > 0 ? config.submit_chunk : default_chunk,
            static_cast<double>(config.racks) /
                static_cast<double>(cluster::curie::kRacks)) {
  result_.max_cluster_watts = cluster_.power_model().max_cluster_watts();
  result_.total_cores = cluster_.topology().total_cores();
  add_cap_windows(config, horizon);
  // From here every scheduled event is a runtime event: it must sort after
  // the pump at equal timestamps, exactly like events scheduled mid-run
  // sorted after the preloaded submissions.
  simulator_.set_default_band(sim::EventBand::kNormal);
}

void Replay::add_cap_windows(const ScenarioConfig& config, sim::Time horizon) {
  // Policy::None skips every cap, single window or schedule alike, so a
  // None baseline is comparable across both config styles.
  if (config.powercap.policy == Policy::None) return;
  // The single cap_lambda/cap_start/cap_duration window is a one-window
  // advance schedule.
  std::vector<CapWindow> single;
  if (config.cap_windows.empty()) {
    check_single_cap(config);
    if (config.cap_lambda < 1.0) {
      single.push_back({config.cap_lambda, config.cap_start, config.cap_duration, -1});
    }
  }
  const std::vector<CapWindow>& windows =
      config.cap_windows.empty() ? single : config.cap_windows;
  // Advance windows are planned jointly in one incremental planner pass;
  // announce-typed windows register mid-replay. result.windows is ordered
  // to match the plan registration order — advance windows (config order)
  // first, then announce-typed windows by announce time — so windows[i]
  // and plans[i] always describe the same window.
  struct Announced {
    sim::Time announce = 0;
    ScenarioResult::Window window;
  };
  std::vector<PlanWindow> advance;
  std::vector<Announced> announced;
  for (const CapWindow& window : windows) {
    sim::Time start = window.start >= 0 ? window.start
                                        : (horizon - window.duration) / 2;
    sim::Time end =
        window.duration > 0 ? start + window.duration : sim::kTimeMax;
    double watts = manager_.lambda_to_watts(window.lambda);
    if (window.announce >= 0) {
      // An announcement past the horizon never happens: no reservation,
      // no plan, no listed window.
      if (window.announce > horizon) continue;
      announced.push_back({window.announce, {start, end, watts}});
    } else {
      result_.windows.push_back({start, end, watts});
      advance.push_back({start, end, watts});
    }
  }
  manager_.add_powercap_schedule(advance);
  std::stable_sort(announced.begin(), announced.end(),
                   [](const Announced& a, const Announced& b) {
                     return a.announce < b.announce;
                   });
  for (const Announced& entry : announced) {
    simulator_.schedule_at(entry.announce, *this, /*kind=*/0,
                           static_cast<std::int64_t>(result_.windows.size()));
    result_.windows.push_back(entry.window);
  }
  if (!result_.windows.empty()) {
    result_.cap_watts = result_.windows.front().watts;
    result_.cap_start = result_.windows.front().start;
    result_.cap_end = result_.windows.front().end;
  }
}

void Replay::on_event(const sim::Event& event) {
  const ScenarioResult::Window& w = result_.windows[static_cast<std::size_t>(event.arg)];
  manager_.add_powercap(w.start, w.end, w.watts);
}

void Replay::advance_to(sim::Time t) {
  pump_.extend_horizon(t);
  if (t > simulator_.now()) simulator_.run_until(t);
}

ScenarioResult Replay::finish(sim::Time end) {
  recorder_.sample(end);

  // Consistency audit: the incremental power accounting must agree with a
  // full recomputation after the whole run.
  double drift = cluster_.watts() - cluster_.audit_watts();
  PS_CHECK_MSG(drift < 1e-6 && drift > -1e-6, "incremental power accounting drifted");

  result_.plans = manager_.release_plans();
  if (!result_.plans.empty()) {
    result_.has_plan = true;
    result_.plan = result_.plans.front();
  }
  result_.summary = metrics::summarize(recorder_, controller_, 0, end);
  result_.stats = controller_.stats();
  result_.samples = std::move(recorder_).samples();

  // The simulator, pump and admission cache keep plain per-object counters
  // on the hot path; their totals fold into the registry once, here. A
  // sweep pool running many replays accumulates into the same counters.
  obs::Registry& registry = obs::Registry::global();
  registry.counter("core.events_fired").inc(simulator_.fired_count());
  registry.counter("core.events_scheduled").inc(simulator_.scheduled_count());
  registry.counter("core.jobs_submitted").inc(pump_.submitted());
  registry.counter("core.pump_refills").inc(pump_.refills());
  const OnlineGovernor::AdmissionCacheStats& cache =
      manager_.governor().admission_cache_stats();
  registry.counter("core.admission_cache.hits").inc(cache.hits);
  registry.counter("core.admission_cache.misses").inc(cache.misses);
  registry.counter("core.admission_cache.invalidations").inc(cache.invalidations);
  registry.counter("core.admission_cache.carries").inc(cache.carries);
  registry.counter("core.admission_cache.key_evictions").inc(cache.key_evictions);
  registry.counter("core.admission_cache.audits").inc(cache.audits);
  registry.counter("core.admission_cache.fast_rejects").inc(cache.fast_rejects);
  return std::move(result_);
}

}  // namespace ps::core
