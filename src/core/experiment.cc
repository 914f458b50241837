#include "core/experiment.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/replay.h"
#include "obs/trace.h"
#include "util/check.h"

namespace ps::core {

ScenarioResult run_scenario(const ScenarioConfig& config) {
  PS_TRACE_SPAN("core.run_scenario");

  // Workload: every shape streams through a JobSource. In-memory workloads
  // (trace_jobs, generated profiles) wrap in a VectorJobSource — generated
  // at full-Curie calibration.
  workload::GeneratorParams params = config.custom_workload
                                         ? *config.custom_workload
                                         : workload::params_for(config.profile);
  std::shared_ptr<workload::JobSource> source = config.job_source;
  if (!source) {
    std::vector<workload::JobRequest> jobs =
        config.trace_jobs ? *config.trace_jobs : workload::generate(params, config.seed);
    source = std::make_shared<workload::VectorJobSource>(std::move(jobs));
  }
  source->rewind();

  sim::Duration horizon = config.horizon;
  bool horizon_from_hint = false;
  if (horizon <= 0) {
    if (config.trace_jobs || config.job_source) {
      horizon_from_hint = true;
      // Traces carry their own span: last submission plus a drain hour.
      // The source bounds it without materializing the trace (SWF sources
      // by a one-pass pre-scan; vectors answer from their sorted tail).
      sim::Time last_submit = source->last_submit_hint();
      PS_CHECK_MSG(last_submit >= 0,
                   "scenario: job source cannot bound the replay horizon; "
                   "set config.horizon explicitly");
      horizon = last_submit + sim::hours(1);
    } else {
      horizon = params.span;
    }
  }

  // The pump submits at trace timestamps, pulling chunks as the clock
  // reaches them (jobs past the horizon are never pulled at all).
  Replay replay(config, *source, horizon,
                config.job_source ? kDefaultStreamChunk : 0);
  replay.advance_to(horizon);
  if (horizon_from_hint) {
    // An explicit config.horizon may truncate a trace on purpose; a
    // hint-derived one may not — leftover jobs mean the source's hint
    // under-reported its last submission and the replay lost work.
    PS_CHECK_MSG(replay.pump().fully_drained(),
                 "job source outlived its last_submit_hint — the source "
                 "under-reported its last submit time");
  }
  return replay.finish(horizon);
}

void check_single_cap(const ScenarioConfig& config) {
  PS_CHECK_MSG(std::isfinite(config.cap_lambda) && config.cap_lambda > 0.0,
               "scenario: cap_lambda must be finite and positive");
  PS_CHECK_MSG(config.cap_duration > 0, "scenario: cap_duration must be positive");
  PS_CHECK_MSG(config.cap_start < 0 || config.cap_start <= sim::kTimeMax - config.cap_duration,
               "scenario: cap_start + cap_duration must fit sim::Time");
}

std::vector<CapWindow> make_daily_cap_windows(sim::Time start, std::int32_t days,
                                              sim::Duration window_start,
                                              sim::Duration window_end,
                                              double fraction) {
  PS_CHECK_MSG(days >= 0, "daily cap windows: days >= 0");
  PS_CHECK_MSG(window_start >= 0 && window_end > window_start &&
                   window_end <= sim::hours(24),
               "daily cap windows: 0 <= window_start < window_end <= 24h");
  std::vector<CapWindow> windows;
  windows.reserve(static_cast<std::size_t>(days));
  for (std::int32_t day = 0; day < days; ++day) {
    CapWindow window;
    window.lambda = fraction;
    window.start = start + sim::hours(24) * day + window_start;
    window.duration = window_end - window_start;
    window.announce = -1;  // advance windows: planned jointly at t = 0
    windows.push_back(window);
  }
  return windows;
}

}  // namespace ps::core
