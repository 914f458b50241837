// Event-driven step time series of cluster state.
//
// The recorder observes the controller and snapshots node-state counts and
// power at every state-changing event. Values hold between samples (step
// semantics), so time integrals (energy, core-seconds) are exact, not
// sampling approximations — the paper's Fig 6/7/8 quantities derive from
// these integrals.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "rjms/controller.h"
#include "sim/time.h"

namespace ps::metrics {

struct Sample {
  sim::Time t = 0;
  double watts = 0.0;
  std::int32_t idle_nodes = 0;
  std::int32_t off_nodes = 0;
  std::int32_t transitioning_nodes = 0;  ///< booting + shutting down
  std::vector<std::int32_t> busy_by_freq;  ///< index = FreqIndex
};

class Recorder final : public rjms::ControllerObserver {
 public:
  /// Registers with the controller and takes the t=0 sample.
  explicit Recorder(rjms::Controller& controller);

  void on_state_change(sim::Time now) override { sample(now); }

  /// Takes a sample now; same-timestamp samples collapse to the latest.
  void sample(sim::Time now);

  const std::vector<Sample>& samples() const& noexcept { return samples_; }
  /// Moves the series out of a recorder that is done recording (the end of
  /// a replay), instead of copying it sample by sample.
  std::vector<Sample> samples() && noexcept { return std::move(samples_); }

  // --- exact step integrals over [from, to) --------------------------------
  /// Energy in joules: integral of watts dt.
  double energy_joules(sim::Time from, sim::Time to) const;
  /// Work in core-seconds: integral of busy cores dt (the paper's "work" /
  /// accumulated cpu time).
  double work_core_seconds(sim::Time from, sim::Time to) const;
  /// Degradation-corrected work: a core computing at a reduced frequency
  /// counts as 1/deg(f) of a full-speed core, deg being the scheduler's
  /// walltime model (cluster::DegradationModel) with `degmin` at the lowest
  /// level. This is the *science throughput* counterpart of the
  /// occupancy-based work above.
  double effective_work_core_seconds(sim::Time from, sim::Time to,
                                     double degmin = 1.63) const;
  /// Maximum instantaneous watts observed in [from, to).
  double max_watts(sim::Time from, sim::Time to) const;
  /// Seconds within [from, to) during which watts exceeded the cap active
  /// at that moment (cap taken from the controller's reservation book).
  double cap_violation_seconds(sim::Time from, sim::Time to,
                               double tolerance_watts = 0.5) const;

 private:
  template <typename Value>
  double integrate(sim::Time from, sim::Time to, Value&& value_at) const;

  rjms::Controller& controller_;
  std::int32_t cores_per_node_;
  std::vector<Sample> samples_;
};

}  // namespace ps::metrics
