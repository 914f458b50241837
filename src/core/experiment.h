// End-to-end scenario runner: replays a workload profile or trace on a
// (scaled) Curie cluster with a powercap policy, through core::Replay
// (core/replay.h), and returns the summary plus the recorded time series.
// Every bench and integration test goes through this single entry point,
// so runs are directly comparable (identical wiring, identical seeds).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/curie.h"
#include "core/offline.h"
#include "core/policy.h"
#include "metrics/summary.h"
#include "metrics/timeseries.h"
#include "rjms/controller.h"
#include "workload/job_source.h"
#include "workload/synthetic.h"

namespace ps::core {

/// One powercap window of a scenario schedule.
struct CapWindow {
  /// Cap as a fraction of worst-case cluster draw.
  double lambda = 1.0;
  /// Window start; < 0 centers a `duration` window in the horizon (the
  /// paper's "one hour in the middle").
  sim::Time start = 0;
  /// 0 = open-ended ("set for now, no time limitation").
  sim::Duration duration = sim::hours(1);
  /// When >= 0, the cap is only announced to the RJMS at this simulation
  /// time (the paper's cap "set for now", §IV-B) — no advance planning.
  /// < 0 (default) announces it at t = 0, before the replay, so the
  /// offline phase plans the window ahead.
  sim::Time announce = -1;
};

struct ScenarioConfig {
  workload::Profile profile = workload::Profile::MedianJob;
  /// When set, overrides `profile` entirely (tests use small custom loads).
  std::optional<workload::GeneratorParams> custom_workload;
  /// When set, replay these exact jobs (e.g. an SWF trace slice) instead of
  /// generating a profile. Submit times are absolute simulation times —
  /// raw traces should be rebased to t=0 first
  /// (workload::swf::rebase_submit_times). Widths are scaled with `racks`
  /// like profile jobs; `seed` is unused. See examples/replay_swf.cpp.
  std::optional<std::vector<workload::JobRequest>> trace_jobs;
  /// When set, the workload streams from this source instead of
  /// trace_jobs/profile — the O(chunk)-memory path for traces too large to
  /// materialize (workload::SwfStreamSource, ChunkedSyntheticSource).
  /// run_scenario rewinds it first, so a config can run repeatedly; but a
  /// source is stateful — never share one object between concurrently
  /// running scenarios (give each parallel sweep cell its own).
  /// Not serializable (dist sweeps must ship trace_jobs or a profile).
  std::shared_ptr<workload::JobSource> job_source;
  /// Streamed-submission chunk: the pump pulls the next chunk when the
  /// event clock reaches the current chunk's horizon, keeping resident jobs
  /// O(chunk). 0 (default) = materialize in one pull when no job_source is
  /// set, or kDefaultStreamChunk when one is. Any positive value also
  /// streams vector/profile workloads chunked (parity testing).
  sim::Duration submit_chunk = 0;
  std::uint64_t seed = 42;

  /// Cluster scale: number of racks of the Curie shape (5 chassis x 18
  /// nodes). 56 = full Curie. Job sizes from the profile are scaled down
  /// proportionally so the workload still fits the machine shape.
  std::int32_t racks = cluster::curie::kRacks;

  PowercapConfig powercap{};

  /// Cap as a fraction of worst-case cluster draw; >= 1 means no cap.
  double cap_lambda = 1.0;
  /// Cap window; start < 0 centers a `cap_duration` window in the profile
  /// span (the paper's "one hour in the middle"). The duration must be
  /// positive; run_scenario plans it as a one-window advance schedule.
  sim::Time cap_start = -1;
  sim::Duration cap_duration = sim::hours(1);

  /// Multi-window powercap schedule (paper §VII: a 24 h day with several
  /// cap windows). When non-empty it replaces the single
  /// cap_lambda/cap_start/cap_duration window above. Advance windows
  /// (announce < 0) are planned jointly by the offline planner in one
  /// incremental pass.
  std::vector<CapWindow> cap_windows;

  rjms::ControllerConfig controller{};

  /// Simulation horizon; 0 = the profile's span.
  sim::Duration horizon = 0;
};

struct ScenarioResult {
  metrics::RunSummary summary;
  rjms::Controller::Stats stats;
  metrics::Series samples;   ///< full recorded series
  double cap_watts = 0.0;                ///< first window; 0 when no cap
  sim::Time cap_start = 0;
  sim::Time cap_end = 0;
  bool has_plan = false;
  OfflinePlan plan;  ///< first offline plan; valid when has_plan

  /// Every applied cap window (resolved to absolute watts/times): advance
  /// windows in config order, then announce-typed windows by announce
  /// time — the same order plans are made in, so windows[i] pairs with
  /// plans[i]. Announce-typed windows whose announcement falls past the
  /// horizon are dropped from both. Empty when no cap was applied.
  struct Window {
    sim::Time start = 0;
    sim::Time end = 0;  ///< sim::kTimeMax when open-ended
    double watts = 0.0;
  };
  std::vector<Window> windows;
  /// One offline plan per window, index-aligned with `windows` (advance
  /// windows plan at t = 0; announce-typed ones at their announce time).
  std::vector<OfflinePlan> plans;

  double max_cluster_watts = 0.0;
  std::int64_t total_cores = 0;
};

/// Chunk applied when a job_source is set and submit_chunk is 0.
inline constexpr sim::Duration kDefaultStreamChunk = sim::hours(1);

/// Runs one scenario to completion (deterministic). Streamed and
/// materialized replays of the same workload are bit-identical: submissions
/// always go through the chunked pump, whose event band reproduces the
/// preloaded submission order exactly (docs/ARCHITECTURE.md, "Streaming
/// replay").
ScenarioResult run_scenario(const ScenarioConfig& config);

/// Throws ps::CheckError naming the field unless the single cap window is
/// well-formed: cap_lambda finite and > 0 (>= 1 means no cap),
/// cap_duration > 0 (0 would turn the window into an open-ended CapWindow)
/// and a window end cap_start + cap_duration that fits sim::Time.
/// Only meaningful while cap_windows is empty. The replay checks it before
/// planning the window, and ps-serve before it waits for clients.
void check_single_cap(const ScenarioConfig& config);

/// Calendar-style cap schedule (ROADMAP "rolling/periodic cap schedules"):
/// expands "every day from `window_start` to `window_end` (offsets within
/// the day) run at `fraction` of worst-case draw" into one advance
/// CapWindow per day, the first day beginning at absolute time `start`.
/// Example — every day 11:00–13:00 at 40 % for a week:
///   config.cap_windows = make_daily_cap_windows(
///       0, 7, sim::hours(11), sim::hours(13), 0.4);
/// The windows repeat a single cap depth, so the offline planner prices
/// one plan and serves the rest from its plan cache. Append the result to
/// cap_windows to combine several daily patterns.
std::vector<CapWindow> make_daily_cap_windows(sim::Time start, std::int32_t days,
                                              sim::Duration window_start,
                                              sim::Duration window_end,
                                              double fraction);

}  // namespace ps::core
