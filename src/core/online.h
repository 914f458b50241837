// Online phase of the powercap algorithm (paper Algorithm 2 + §V).
//
// At every job-start evaluation the governor selects the *highest* CPU
// frequency such that projected cluster power stays within:
//   * the cap active right now (instantaneous check against live power);
//   * every future powercap window the job's frequency-stretched span
//     overlaps (projection: all-idle baseline + planned switch-off savings
//     + jobs persisting into the window + the candidate itself).
// If even the policy's lowest frequency does not fit, the job stays
// pending ("Impossible to schedule the job now").
//
// Pricing. One admission asks the reservation book about `now` twice: the
// cap active now (ReservationBook::cap_at, off the book's memo of the
// active set) and the run of powercap windows starting before the end of
// the longest span any allowed frequency stretches the job to (a binary
// search on the book's start column). Spans only grow as the frequency
// falls, so each lower level reaches a prefix of that start-ordered run
// that contains the higher level's. The PaperLive modes walk it once,
// keeping a running minimum of the reached windows' global optimal
// frequencies f* and a flag for a window without one. f* depends only on
// the window and the switch-off reservations, so it is priced once per
// (window id, ReservationBook::version()) in a flat table indexed by id,
// which PowercapManager's window-start rescale reads too. Projection reads
// live watts: it re-sorts the run into id order and each level checks the
// windows its own span reaches, stopping at the first failure, pricing
// each at most once per admission. Its persistence sums are kept
// incrementally (observer callbacks), so it costs O(#reservations), not
// O(#running jobs); when a window's sum is created fixes its bits, so the
// lazy id-ordered pricing stays.
//
// Rejections are additionally cached per job class: a verdict depends only
// on (requested walltime, allocation width, degmin) plus the shadow state
// captured by (controller epoch, now, reservation-book version). Only
// rejected classes are kept, in a flat list: an accepted verdict is never
// read again, because the controller starts that job at once and the start
// bumps the epoch. A scheduling pass over a deep pending queue therefore
// prices each distinct rejected class once, and the controller skips node
// selection for the rest (admission_known_rejected). The list is cleared,
// keeping its capacity, when the generation moves, so the cache allocates
// nothing in steady state. It can be audited against brute-force
// re-verdicts (PowercapConfig::audit_admission_cache), mirroring
// Cluster::audit_watts.
//
// Generation granularity: when only `now` moved (epoch and book version
// unchanged — a quiescent timestep where events fired but no resource,
// reservation or boundary changed), rejections are *carried* instead of
// cleared. This is sound because every powercap/switch-off boundary event
// bumps the controller epoch, so epoch equality pins the active-cap
// landscape up to `now`; the only remaining time dependence is a future
// window start entering some cached span's horizon, which the carry check
// rules out per class: each rejection remembers its own degradation-
// stretched span, so a future window start entering only the *long* spans
// evicts exactly those classes while short-job rejections keep carrying
// (see refresh_cache_generation). Carried rejections sit under the same
// audit_admission_cache brute-force fence as ordinary hits.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "cluster/degradation.h"
#include "core/policy.h"
#include "rjms/controller.h"
#include "rjms/power_governor.h"

namespace ps::core {

class OnlineGovernor final : public rjms::PowerGovernor, public rjms::ControllerObserver {
 public:
  OnlineGovernor(rjms::Controller& controller, const PowercapConfig& config);

  // --- rjms::PowerGovernor -------------------------------------------------
  std::optional<Admission> admit(const rjms::Job& job,
                                 const std::vector<cluster::NodeId>& nodes) override;
  double max_walltime_stretch() const override { return walltime_stretch_; }
  bool admission_known_rejected(const rjms::Job& job,
                                std::int32_t width) const override;

  // --- rjms::ControllerObserver (power bookkeeping) ------------------------
  void on_job_start(const rjms::Job& job) override;
  void on_job_end(const rjms::Job& job) override;
  void on_job_rescaled(const rjms::Job& job, cluster::FreqIndex old_freq,
                       sim::Time old_est_end) override;

  /// Projected cluster watts at the start of a *future* powercap window
  /// (no candidate job included). Used by AdmissionMode::Projection;
  /// exposed for tests.
  double projected_watts_at(const rjms::Reservation& cap) const;

  /// The window's global "optimal CPU frequency" (paper §IV-B): the highest
  /// policy-allowed frequency at which every node not planned for shutdown
  /// could compute while the whole cluster stays within `cap.watts`.
  /// nullopt when even the policy's lowest frequency does not fit. Used by
  /// the PaperLive modes and the dynamic-DVFS window start. `cap` must be a
  /// powercap reservation of the controller's book: the answer is memoized
  /// per (cap.id, book version).
  std::optional<cluster::FreqIndex> optimal_window_freq(
      const rjms::Reservation& cap) const;

  /// Lowest/highest DVFS indices the current policy allows.
  cluster::FreqIndex min_allowed_freq() const noexcept { return min_freq_; }
  cluster::FreqIndex max_allowed_freq() const noexcept { return max_freq_; }

  const cluster::DegradationModel& degradation() const noexcept { return degradation_; }

  /// degmin used for a given job (app-specific when configured and known).
  double degmin_for(const rjms::Job& job) const;

  /// Admission-cache observability (tests, benches, ops counters).
  struct AdmissionCacheStats {
    std::uint64_t hits = 0;           ///< admissions answered by a cached rejection
    std::uint64_t misses = 0;         ///< admissions priced by Algorithm 2
    std::uint64_t invalidations = 0;  ///< generation moved, non-empty list cleared
    std::uint64_t carries = 0;        ///< pure time advances that kept the list
    std::uint64_t key_evictions = 0;  ///< single classes dropped by a carry whose
                                      ///< span met an incoming window start
    std::uint64_t audits = 0;         ///< brute-force re-verdicts performed
    std::uint64_t fast_rejects = 0;   ///< selector walks skipped via cached rejection
  };
  const AdmissionCacheStats& admission_cache_stats() const noexcept {
    return cache_stats_;
  }

 private:
  struct CapCache {
    double persisting_delta = 0.0;  ///< watts above idle from jobs running into the window
  };
  CapCache& cache_for(const rjms::Reservation& cap) const;
  double busy_delta(cluster::FreqIndex f) const;
  /// A running job's term of running_busy_delta_ at level `f`.
  double job_delta(const rjms::Job& job, cluster::FreqIndex f) const {
    return static_cast<double>(job.width) * busy_delta(f);
  }
  /// Calls `fn(cap, cache)` for every tracked window that has not started;
  /// erases the entries of started windows on the way.
  template <typename Fn>
  void for_each_future_cap(Fn&& fn);
  /// optimal_window_freq without the memo table.
  std::optional<cluster::FreqIndex> price_window_freq(const rjms::Reservation& cap) const;

  rjms::Controller& controller_;
  PowercapConfig config_;
  cluster::DegradationModel degradation_;
  cluster::FreqIndex min_freq_ = 0;
  cluster::FreqIndex max_freq_ = 0;
  double walltime_stretch_ = 1.0;

  /// Sum over running jobs of nodes x (busy - idle) watts. A job's own
  /// term is recomputed from (nodes, freq) on rescale and end: the same
  /// expression gives the same bits, so removal is exact.
  double running_busy_delta_ = 0.0;
  /// Future-cap persistence sums, keyed by reservation id. Created on a
  /// window's first projection; the job start/end/rescale callbacks erase
  /// it once the window has started or its reservation is gone.
  mutable std::map<rjms::ReservationId, CapCache> future_caps_;

  /// f* table: optimal_window_freq indexed by window id, each entry valid
  /// for the ReservationBook::version() it was priced at.
  struct WindowFreq {
    std::uint64_t version = ~0ull;
    std::optional<cluster::FreqIndex> f_star;
  };
  mutable std::vector<WindowFreq> f_star_by_id_;

  /// compute_admission_freq scratch, reused across admissions: the job's
  /// stretched span per allowed level (index f - min_freq_), and for
  /// Projection the future windows the longest span overlaps, in id order,
  /// each priced on its first check.
  struct FutureWindow {
    const rjms::Reservation* cap = nullptr;
    bool priced = false;
    double projected_watts = 0.0;
  };
  mutable std::vector<sim::Duration> spans_;
  mutable std::vector<FutureWindow> windows_;

  // --- epoch-keyed rejection cache -----------------------------------------

  /// A class that Algorithm 2 rejected in the current generation: jobs of
  /// one class always get the same verdict. It also remembers the longest
  /// effective (degradation-stretched) walltime its frequency walk
  /// considered — the class's own span horizon, which the carry check
  /// clears against future window starts. Tracking it per class lets a time
  /// advance evict only the classes whose span an incoming window start has
  /// entered; shorter ones keep carrying.
  struct RejectedClass {
    sim::Duration walltime = 0;  ///< requested (pre-degradation) walltime
    std::int32_t width = 0;      ///< allocation width in nodes
    double degmin = 0.0;         ///< the job's degradation parameter
    sim::Duration max_eff_walltime = 0;
  };
  /// True when (walltime, width, degmin) is a cached rejection.
  bool is_rejected(sim::Duration walltime, std::int32_t width, double degmin) const;

  /// Algorithm 2's frequency walk, extracted so cache misses and audits
  /// share one implementation. nullopt = job stays pending.
  std::optional<cluster::FreqIndex> compute_admission_freq(double node_count,
                                                           sim::Duration walltime,
                                                           double degmin,
                                                           sim::Time now) const;
  /// Projection's future-window checks for one level: every window in
  /// windows_ starting before `span_end`, in id order, priced on first use;
  /// false at the first window the job (adding `delta` watts) does not fit.
  bool fits_projected_windows(sim::Time span_end, double delta) const;

  /// Brings the cache generation up to `now`: no-op when nothing moved,
  /// carry when only time advanced quiescently (see the class comment),
  /// full invalidation otherwise. Callable from const probes — the cache
  /// is mutable state.
  void refresh_cache_generation(sim::Time now) const;

  /// Rejections valid for the current (epoch, now, book version)
  /// generation, where `now` may have been carried forward across
  /// quiescent timesteps. Few distinct classes are rejected per generation,
  /// so a scan beats a hash; cleared with its capacity kept.
  mutable std::vector<RejectedClass> rejected_;
  mutable std::uint64_t cache_epoch_ = ~0ull;
  mutable std::uint64_t cache_book_version_ = ~0ull;
  mutable sim::Time cache_now_ = -1;
  /// Max of RejectedClass::max_eff_walltime over the list — the cheap
  /// whole-list screen before the per-class eviction walk. Grows on insert,
  /// recomputed when a carry evicts classes.
  mutable sim::Duration cache_max_eff_walltime_ = 0;
  mutable AdmissionCacheStats cache_stats_;  ///< counters move on const probes too
};

}  // namespace ps::core
