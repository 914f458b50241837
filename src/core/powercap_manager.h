// Facade tying the powercap pieces to a controller: creates powercap
// reservations, runs the offline planner, attaches the online governor,
// and applies the over-cap handling ("wait" by default, or the paper's
// "extreme actions" kill mode).
#pragma once

#include <cstdint>
#include <vector>

#include "core/offline.h"
#include "core/online.h"
#include "core/policy.h"
#include "rjms/controller.h"

namespace ps::core {

class PowercapManager : private sim::EventHandler {
 public:
  /// Attaches governor + observer to the controller (unless Policy::None,
  /// which leaves the controller unrestricted — the paper's baseline).
  PowercapManager(rjms::Controller& controller, PowercapConfig config);

  PowercapManager(const PowercapManager&) = delete;
  PowercapManager& operator=(const PowercapManager&) = delete;

  /// Creates a powercap reservation for [start, end) at `watts` and runs
  /// the offline phase. Under Policy::None the request is recorded but has
  /// no effect on scheduling.
  rjms::ReservationId add_powercap(sim::Time start, sim::Time end, double watts);

  /// Multi-window schedule (paper §VII: the 24 h day holds several cap
  /// windows): registers every powercap reservation first, then plans the
  /// whole schedule in one incremental OfflinePlanner pass, then arms the
  /// per-window hooks (kill mode, dynamic DVFS). Returns the reservation
  /// ids in window order. add_powercap is the one-window case.
  std::vector<rjms::ReservationId> add_powercap_schedule(
      const std::vector<PlanWindow>& windows);

  /// Cap "set for now" with no time limitation (paper §IV-B).
  rjms::ReservationId add_powercap_now(double watts);

  /// Convenience: watts for a fraction of the cluster's worst-case draw
  /// (the experiments' 80/60/40 % settings).
  double lambda_to_watts(double lambda) const;

  const PowercapConfig& config() const noexcept { return config_; }
  OnlineGovernor& governor() noexcept { return governor_; }
  OfflinePlanner& planner() noexcept { return planner_; }
  const std::vector<OfflinePlan>& plans() const noexcept { return plans_; }
  /// Moves the accumulated plans out (selection node vectors can hold
  /// thousands of ids per window). For end-of-run extraction when the
  /// manager is about to be destroyed; plans() is empty afterwards.
  std::vector<OfflinePlan> release_plans() noexcept { return std::move(plans_); }

 private:
  /// What a manager event means (sim::Event::kind); kEnforce and
  /// kRescaleDown carry the cap reservation id as their arg.
  enum EventKind : std::uint8_t {
    kEnforce,      ///< kill mode at the window start
    kRescaleDown,  ///< dynamic DVFS at the window start
    kRescaleUp,    ///< dynamic DVFS at the window end
  };
  void on_event(const sim::Event& event) override;

  /// Kill-mode / dynamic-DVFS events at one window's boundaries.
  void arm_window_hooks(rjms::ReservationId cap_id, sim::Time start, sim::Time end);
  /// Kill mode: kills running jobs, newest first, until the cluster draws
  /// no more than the cap reservation's watts.
  void enforce_cap(rjms::ReservationId cap_id);
  /// dynamic_dvfs extension: slow every running scalable job to the
  /// window's optimal frequency when it opens.
  void rescale_down_for_window(rjms::ReservationId cap_id);
  /// dynamic_dvfs extension: speed running jobs back up within the cap
  /// active now (fmax when none) once a window closes.
  void rescale_up_after_window();

  rjms::Controller& controller_;
  PowercapConfig config_;
  OnlineGovernor governor_;
  OfflinePlanner planner_;
  std::vector<OfflinePlan> plans_;
};

}  // namespace ps::core
