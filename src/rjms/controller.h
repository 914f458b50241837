// The RJMS controller (the "slurmctld" of this reproduction).
//
// Owns the job table, the pending queue, reservations and node power
// transitions; runs prioritized FCFS with EASY backfilling; consults an
// optional PowerGovernor for powercap admission (paper Fig 1: the grey
// "node selection algorithm" box is where the powercap logic plugs in).
//
// Scheduling passes are event-driven: a full pass runs when resources may
// have been freed (job end, reservation boundary, node boot) and a cheap
// single-job attempt runs on submit, honouring the EASY reservation of the
// head job. Everything is deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "rjms/fairshare.h"
#include "rjms/job.h"
#include "rjms/node_selector.h"
#include "rjms/pending_bands.h"
#include "rjms/power_governor.h"
#include "rjms/priority.h"
#include "rjms/reservation.h"
#include "sim/simulator.h"
#include "workload/job_request.h"

namespace ps::rjms {

struct ControllerConfig {
  PriorityWeights priority{};
  std::size_t backfill_depth = 50;  ///< jobs scanned past the queue head
  SelectorKind selector = SelectorKind::Packing;
  bool fairshare_enabled = true;
  sim::Duration fairshare_half_life = sim::hours(7 * 24);
  /// Node power transition durations (0 = instantaneous, the paper's
  /// emulation setting).
  sim::Duration shutdown_delay = 0;
  sim::Duration boot_delay = 0;
};

/// Observer for metrics/tests. on_state_change fires after any event that
/// may alter cluster power or utilization (job start/end, node transition).
class ControllerObserver {
 public:
  virtual ~ControllerObserver() = default;
  virtual void on_job_start(const Job& job) { (void)job; }
  virtual void on_job_end(const Job& job) { (void)job; }
  /// A running job changed DVFS level (dynamic frequency scaling). The job
  /// carries the *new* freq/durations; old_freq and old_est_end describe
  /// the state being replaced.
  virtual void on_job_rescaled(const Job& job, cluster::FreqIndex old_freq,
                               sim::Time old_est_end) {
    (void)job;
    (void)old_freq;
    (void)old_est_end;
  }
  virtual void on_state_change(sim::Time now) { (void)now; }
  /// A full scheduling pass walked the queue at `now` and finished.
  virtual void on_pass(sim::Time now) { (void)now; }
};

class Controller : private sim::EventHandler {
 public:
  Controller(sim::Simulator& simulator, cluster::Cluster& cluster, ControllerConfig config);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Wires the powercap governor (may be null). Call before submitting.
  void set_governor(PowerGovernor* governor) noexcept { governor_ = governor; }

  /// Attaches an observer. Call before the first submit(): a job that fits
  /// starts inside that call, and observers that keep per-running-job
  /// state (the governor's power sums) must see every start.
  void add_observer(ControllerObserver* observer);

  // --- job lifecycle -------------------------------------------------------

  /// Registers a job arriving now (request.submit_time is recorded but the
  /// queue entry is created immediately — the replayer calls this at the
  /// right simulation time). When the last full pass cached an EASY shadow,
  /// a job that fits it starts inside this call; otherwise it waits for
  /// the next full pass. Jobs wider than the machine are rejected (state
  /// Killed). Returns the job id.
  JobId submit(const workload::JobRequest& request);

  /// Terminates a running job immediately (powercap extreme action).
  void kill_job(JobId id);

  /// Changes a running job's DVFS level mid-execution (the paper's
  /// future-work extension). The *remaining* runtime and walltime are
  /// multiplied by `remaining_ratio` (= deg(new)/deg(old) for the job's
  /// degradation model); elapsed time is unaffected. The end event,
  /// walltime bookkeeping and node power states are updated consistently.
  void rescale_running_job(JobId id, cluster::FreqIndex new_freq,
                           double remaining_ratio);

  /// The job with `id`. Throws CheckError for an id never submitted.
  const Job& job(JobId id) const;

  std::size_t pending_count() const noexcept { return pending_.size(); }
  std::size_t running_count() const noexcept { return running_by_end_.size(); }

  /// A running job keyed by its estimated end (start + scaled walltime).
  struct RunningJob {
    sim::Time est_end;
    JobId id;
    const Job* job;
    /// (est_end, id): a strict total order over running jobs.
    bool operator<(const RunningJob& other) const noexcept {
      return est_end != other.est_end ? est_end < other.est_end : id < other.id;
    }
  };
  using RunningSet = std::set<RunningJob>;
  /// Running jobs ordered by estimated end, then id.
  const RunningSet& running_by_end() const noexcept { return running_by_end_; }

  /// Calls fn(const Job&) for every job ever submitted, in submission order.
  template <class Fn>
  void for_each_job(Fn&& fn) const {
    jobs_.for_each(std::forward<Fn>(fn));
  }

  // --- reservations & power management -------------------------------------

  ReservationBook& reservations() noexcept { return reservations_; }
  const ReservationBook& reservations() const noexcept { return reservations_; }

  /// Powercap reservation over [start, end) (end may be sim::kTimeMax for
  /// "set for now"). Returns the reservation id. Scheduling passes are
  /// triggered at the boundaries.
  ReservationId add_powercap_reservation(sim::Time start, sim::Time end, double watts);

  /// Maintenance reservation: `nodes` are blocked for any job whose span
  /// overlaps [start, end) but stay powered (the classic SLURM
  /// reservation the paper's mechanism extends).
  ReservationId add_maintenance_reservation(sim::Time start, sim::Time end,
                                            std::vector<cluster::NodeId> nodes);

  /// Switch-off reservation: `nodes` are powered off during [start, end).
  /// Strict mode blocks the nodes for any overlapping job in advance;
  /// permissive mode lets jobs run on them until the window starts and
  /// powers each node off as its job releases it (see Reservation docs).
  /// planned_saving_watts is the offline algorithm's computed saving
  /// (stored for online power projections).
  ReservationId add_switch_off_reservation(sim::Time start, sim::Time end,
                                           std::vector<cluster::NodeId> nodes,
                                           double planned_saving_watts,
                                           bool permissive = false);

  /// Requests a full scheduling pass at the current time (coalesced).
  void request_schedule();

  // --- accessors ------------------------------------------------------------

  sim::Simulator& simulator() noexcept { return simulator_; }
  cluster::Cluster& cluster() noexcept { return cluster_; }
  const cluster::Cluster& cluster() const noexcept { return cluster_; }
  const ControllerConfig& config() const noexcept { return config_; }
  const FairShare& fairshare() const noexcept { return fairshare_; }

  /// Consistency audit of the pass order (the pending-queue analogue of
  /// Cluster::audit_watts): re-prices every pending job at now with
  /// PriorityCalculator::compute, fully sorts the queue and checks that the
  /// band merge a pass would run now yields the same order. Throws
  /// CheckError on a mismatch; returns the number of jobs compared.
  std::size_t audit_pass_order() const;

  /// Resource-state generation counter: bumps on any event that can change
  /// an admission or selection outcome (job start/end/rescale, node power
  /// transition, reservation registration). Together with the reservation
  /// book `version()` and the current time it keys derived caches — most
  /// notably the governor's admission cache: a verdict computed at
  /// (epoch, now, book version) is valid until any of the three moves.
  std::uint64_t epoch() const noexcept { return epoch_; }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t killed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t full_passes = 0;
    std::uint64_t backfill_starts = 0;
    std::uint64_t quick_attempts = 0;       ///< submit-path attempts evaluated
    std::uint64_t selector_fast_fails = 0;  ///< selections skipped by the width cache
    std::uint64_t admission_fast_fails = 0; ///< attempts settled by a cached rejection
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  void notify_state_change();
  void full_pass();
  /// The job with `id` for a mutating entry point; CheckError if unknown.
  Job& job_for_update(JobId id) { return const_cast<Job&>(job(id)); }
  /// Single-job attempt (submit path) honouring the cached EASY shadow.
  void quick_attempt(Job& job);
  /// Selects nodes for `job` into picked_ and asks the governor; the
  /// admission when the job may start now on picked_.
  std::optional<PowerGovernor::Admission> plan_start(const Job& job);
  /// Starts `job` on picked_ (the nodes plan_start chose) as `admission` says.
  void start_job(Job& job, const PowerGovernor::Admission& admission);
  /// An empty node list that holds `width` nodes without growing: a spare
  /// one when the stash has it, else a new one of the width's class.
  std::vector<cluster::NodeId> take_node_list(std::int32_t width);
  /// Moves an ended job's node list to the stash.
  void recycle_node_list(Job& job);
  /// Schedules the end event of a running job from its current durations,
  /// records it as the job's live end and files the job in
  /// running_by_end_, reusing a spare set node if any.
  void schedule_end(Job& job);
  /// Undoes schedule_end: the job has no live end event any more (the
  /// scheduled one is ignored when it fires), and its running_by_end_ node
  /// moves to the stash.
  void drop_end(Job& job);
  /// The live end event fired: the job ran to its walltime (Killed) or to
  /// its runtime (Completed), whichever is shorter.
  void finish_job(Job& job);
  /// Shared end-of-life bookkeeping for finish_job and kill_job: end-event
  /// cleanup, node release, fairshare charge, stats, observers.
  void teardown_running_job(Job& job, JobState final_state);
  /// Shadow-time estimate for the head job (EASY): earliest time enough
  /// nodes are expected free, using walltime-based end estimates.
  void compute_shadow(const Job& head);

  /// What a controller event means (sim::Event::kind); `arg` is noted
  /// where one is carried.
  enum EventKind : std::uint8_t {
    kPass,                 ///< the coalesced full scheduling pass
    kJobEnd,               ///< arg: job id; a no-op unless the job's live end
    kCapBoundary,          ///< a powercap reservation starts or ends
    kMaintenanceBoundary,  ///< a maintenance reservation starts or ends
    kSwitchOffBegin,       ///< arg: switch-off reservation id
    kSwitchOffEnd,         ///< arg: switch-off reservation id
    kShutdownDone,         ///< arg: node id, after shutdown_delay
    kBootDone,             ///< arg: node id, after boot_delay
  };
  void on_event(const sim::Event& event) override;

  void begin_switch_off(ReservationId id);
  void end_switch_off(ReservationId id);
  /// Frees one node after a job: powers it off when an active switch-off
  /// reservation covers it (opportunistic shutdown) and returns true;
  /// otherwise returns false and the caller sets it Idle.
  bool release_node(cluster::NodeId node);
  void power_node_off(cluster::NodeId node);

  sim::Simulator& simulator_;
  cluster::Cluster& cluster_;
  ControllerConfig config_;
  PowerGovernor* governor_ = nullptr;
  std::unique_ptr<NodeSelector> selector_;
  FairShare fairshare_;
  ReservationBook reservations_;
  std::vector<ControllerObserver*> observers_;

  /// Every submitted job, at a stable address (rjms/job.h).
  JobTable jobs_;
  /// Pending jobs in per-user priority bands (rjms/pending_bands.h). Its
  /// entries point into jobs_, whose jobs never move. A full pass walks
  /// them in pass order and prices only the band heads and the jobs it
  /// visits.
  PendingBands pending_;
  RunningSet running_by_end_;
  /// Set nodes of ended jobs, reused by the next start: a job start
  /// allocates no running_by_end_ node once the stash holds one.
  std::vector<RunningSet::node_type> spare_running_;
  /// An ending job's nodes that go Idle, set in one call; reused across
  /// jobs so a teardown allocates nothing once it holds the widest job.
  std::vector<cluster::NodeId> released_idle_;
  /// Node lists of ended jobs by capacity class: class k holds empty lists
  /// of capacity 2^k, and a start of width w takes one of class
  /// ceil(log2 w). Once a class holds a list, a start of its widths
  /// allocates no node list.
  std::array<std::vector<std::vector<cluster::NodeId>>, 64> spare_nodes_;

  // Blocked-node words handed to the selectors; plan_start re-ensures
  // them per span, and they are rewritten only when the blocking
  // reservations change.
  BlockedSet blocked_;
  // The selector's output buffer: a failed selection or a rejected
  // admission allocates nothing, and a start copies it into a recycled
  // node list.
  std::vector<cluster::NodeId> picked_;

  // EASY shadow cached from the last full pass (for submit-path attempts).
  sim::Time shadow_time_ = sim::kTimeMax;
  std::int32_t shadow_extra_nodes_ = 0;
  bool shadow_valid_ = false;

  // Selection-failure fast path: selector success is monotone in width for
  // a fixed (cluster state, blocked set), so once a selection of width W
  // fails, any request of width >= W in the same (epoch, book version,
  // now, horizon) generation fails without walking the idle index.
  std::uint64_t sel_fail_epoch_ = ~0ull;
  std::uint64_t sel_fail_book_version_ = ~0ull;
  sim::Time sel_fail_now_ = -1;
  sim::Time sel_fail_horizon_ = -1;
  std::int32_t sel_fail_width_ = 0;

  bool pass_scheduled_ = false;
  std::uint64_t epoch_ = 0;            ///< bumps on any resource change
  std::uint64_t pass_epoch_ = ~0ull;   ///< epoch at the last full pass
  Stats stats_;
};

}  // namespace ps::rjms
