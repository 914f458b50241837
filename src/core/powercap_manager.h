// Facade tying the powercap pieces to a controller: creates powercap
// reservations, runs the offline planner, attaches the online governor,
// and acts on running jobs at a window's edges: nothing by default (the
// paper's "wait"), or the opt-in dynamic DVFS (§VIII) and kill mode
// (§IV-B) through one loop (docs/ARCHITECTURE.md, "Over-cap actions").
#pragma once

#include <cstdint>
#include <optional>
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
  /// per-window edge events (kill mode, dynamic DVFS). Returns the
  /// reservation ids in window order. add_powercap is the one-window case;
  /// a cap "set for now" (paper §IV-B) is add_powercap(now, kTimeMax, w).
  std::vector<rjms::ReservationId> add_powercap_schedule(
      const std::vector<PlanWindow>& windows);

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
  /// What a manager event means (sim::Event::kind).
  enum EventKind : std::uint8_t {
    kWindowStart,  ///< arg = the cap reservation id
    kWindowEnd,    ///< dynamic DVFS only
  };
  void on_event(const sim::Event& event) override;

  /// One job's share of a cap edge: the level it may run at, or
  /// std::nullopt to kill it.
  using Share = std::optional<cluster::FreqIndex>;

  /// Schedules the edge events one window needs under the config.
  void arm_window_hooks(rjms::ReservationId cap_id, sim::Time start, sim::Time end);
  /// dynamic_dvfs is on and the policy scales frequencies.
  bool rescales() const noexcept;
  /// Window start: dynamic DVFS slows every running job to the window's
  /// f*, then kill mode kills running jobs, newest first, until the
  /// cluster draws no more than the cap.
  void on_window_start(const rjms::Reservation& cap);
  /// Window end (dynamic DVFS): raises running jobs in end order, each to
  /// the highest level the cap active now (fmax when none) still allows.
  void on_window_end();
  /// The one loop that acts on running jobs: visits `order` and applies
  /// `pick(job)` to each, a kill or a rescale. Every pick reads the live
  /// cluster, so it sees the shares applied before it. Returns how many
  /// jobs changed.
  template <typename Pick>
  std::size_t distribute(const std::vector<const rjms::Job*>& order, Pick pick);

  rjms::Controller& controller_;
  PowercapConfig config_;
  OnlineGovernor governor_;
  OfflinePlanner planner_;
  std::vector<OfflinePlan> plans_;
};

}  // namespace ps::core
