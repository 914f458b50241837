// The replay engine: the one place the paper's RJMS replay is wired.
//
// A Replay owns the whole stack — scaled Curie cluster, simulator,
// controller, PowercapManager (offline planner + online governor),
// Recorder and SubmissionPump — and builds it in a fixed order: stack,
// cap reservations ("made in the beginning of the workload replay"), pump,
// then the switch of the default band to kNormal. That order is part of
// every golden: everything wired before the clock runs sorts as kSetup.
//
// It has two drivers. core::run_scenario advances it once, straight to a
// horizon known up front; ps-serve (src/serve/) advances it in
// watermark-shaped slices as clients commit more of the stream. Both end
// in finish(), so a batch replay and a live replay of the same job set
// produce the same ScenarioResult (docs/ARCHITECTURE.md, "Replay engine").
#pragma once

#include "cluster/cluster.h"
#include "core/experiment.h"
#include "core/powercap_manager.h"
#include "core/submission_pump.h"
#include "metrics/timeseries.h"
#include "rjms/controller.h"
#include "sim/simulator.h"
#include "workload/job_source.h"

namespace ps::core {

class Replay : private sim::EventHandler {
 public:
  /// Wires the replay of `source` under `config`. `horizon` resolves the
  /// cap windows (centred windows, announcements past it). `default_chunk`
  /// is the pump's pull window when config.submit_chunk is 0: 0 (one pull)
  /// for a materialized workload, kDefaultStreamChunk for a stream. The
  /// pump starts bounded at -1, so nothing is pulled until advance_to.
  Replay(const ScenarioConfig& config, workload::JobSource& source,
         sim::Time horizon, sim::Duration default_chunk);
  // Scheduled cap announcements name the replay as their handler: it never
  // moves.
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Raises the pump's pull bound to `t` (monotonic) and runs the clock to
  /// `t` when it lies ahead of now.
  void advance_to(sim::Time t);

  /// Final sample at `end`, the power-accounting drift check, and the
  /// summary over [0, end]; publishes the replay totals into the obs
  /// registry. Call once: the plans and the recorded series move out.
  ScenarioResult finish(sim::Time end);

  sim::Simulator& simulator() noexcept { return simulator_; }
  rjms::Controller& controller() noexcept { return controller_; }
  SubmissionPump& pump() noexcept { return pump_; }

 private:
  void add_cap_windows(const ScenarioConfig& config, sim::Time horizon);
  /// The replay's one event: a cap announcement, arg = its index into
  /// result_.windows.
  void on_event(const sim::Event& event) override;

  cluster::Cluster cluster_;
  sim::Simulator simulator_;
  rjms::Controller controller_;
  PowercapManager manager_;
  metrics::Recorder recorder_;
  SubmissionPump pump_;
  ScenarioResult result_;
};

}  // namespace ps::core
