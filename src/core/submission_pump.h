// The replay submission engine: pulls job chunks off a JobSource as the
// event clock reaches them and submits each submit-time group to the
// controller, which tries each job at once. One recurring wake event on
// EventBand::kSubmit does all of it — no per-job event, no per-job
// allocation.
//
// Why this is bit-identical to the old preloaded-event replay: the total
// event order is (time, band, seq). Everything wired before the clock runs
// is kSetup, everything the run schedules is kNormal, and the pump is
// kSubmit — so at every timestamp submissions fire after the setup wiring
// and before any runtime event, exactly where the preloaded submission
// events (whose seqs sat between the two populations) used to fire; within
// a timestamp the pump submits in (submit time, source order), the
// preloaded order. See docs/ARCHITECTURE.md, "Streaming replay".
//
// core::Replay (core/replay.h) owns the pump: it constructs it bounded at
// -1 and raises the bound through extend_horizon — once, to the final
// horizon, under run_scenario; slice by slice under ps-serve, as clients
// commit more of the stream, so the pump never pulls a chunk the ingest
// layer cannot yet guarantee complete. Either way the replay is the same
// (chunk boundaries never change it).
#pragma once

#include <vector>

#include "rjms/controller.h"
#include "sim/simulator.h"
#include "workload/job_source.h"

namespace ps::core {

class SubmissionPump : private sim::EventHandler {
 public:
  /// `horizon`: jobs past it are never pulled (extendable later).
  /// `chunk` <= 0: one pull straight to the horizon. `width_scale` < 1
  /// shrinks requested cores chunk by chunk (scaled-down machines).
  SubmissionPump(sim::Simulator& simulator, rjms::Controller& controller,
                 workload::JobSource& source, sim::Time horizon,
                 sim::Duration chunk, double width_scale)
      : simulator_(simulator), controller_(controller), source_(source),
        horizon_(horizon), chunk_(chunk), width_scale_(width_scale) {}

  /// Pulls the first chunk and schedules the first wake. Call during setup
  /// (the simulator must still be on the kSetup default band).
  void prime() {
    refill();
    schedule_next();
  }

  /// Raises the pull horizon (monotonic) and, when the pump had gone idle
  /// against the old horizon, resumes pulling immediately. Jobs the source
  /// reveals under the new horizon are replayed exactly as if the pump had
  /// been constructed with it — chunk boundaries never change the replay
  /// (the chunk-invariance fences of tests/core_stream_parity_test.cc).
  void extend_horizon(sim::Time horizon);

  /// True once every job due by the horizon was submitted and the source
  /// reported no more beyond it. After a replay whose horizon came from
  /// last_submit_hint(), anything else means the source's hint
  /// under-reported its last submission and jobs were silently dropped.
  bool fully_drained() const noexcept {
    return cursor_ >= buffer_.size() && !more_;
  }

  /// Jobs handed to the controller so far.
  std::uint64_t submitted() const noexcept { return submitted_; }

  /// Source pulls performed (one per buffered chunk) — published into the
  /// obs registry by the scenario/serve layers at run end, never counted
  /// through an atomic on the replay path.
  std::uint64_t refills() const noexcept { return refills_; }

 private:
  void refill();
  void schedule_next();
  /// The pump's one event, the wake: submits every buffered job due now.
  void on_event(const sim::Event& event) override;

  sim::Simulator& simulator_;
  rjms::Controller& controller_;
  workload::JobSource& source_;
  sim::Time horizon_;
  const sim::Duration chunk_;  // <= 0: one pull straight to the horizon
  const double width_scale_;

  std::vector<workload::JobRequest> buffer_;
  std::size_t cursor_ = 0;
  sim::Time chunk_end_ = -1;  // horizon of the chunk currently buffered
  bool more_ = true;
  std::uint64_t submitted_ = 0;
  std::uint64_t refills_ = 0;
};

}  // namespace ps::core
