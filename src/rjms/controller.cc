#include "rjms/controller.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"
#include "util/log.h"

namespace ps::rjms {

Controller::Controller(sim::Simulator& simulator, cluster::Cluster& cluster,
                       ControllerConfig config)
    : simulator_(simulator),
      cluster_(cluster),
      config_(config),
      selector_(make_selector(config.selector)),
      fairshare_(config.fairshare_half_life),
      pending_(PriorityCalculator(config.priority, cluster.topology().total_cores())) {}

void Controller::add_observer(ControllerObserver* observer) {
  PS_CHECK_MSG(observer != nullptr, "null observer");
  PS_CHECK_MSG(stats_.started == 0, "observers must attach before the first job starts");
  observers_.push_back(observer);
}

void Controller::notify_state_change() {
  for (ControllerObserver* obs : observers_) obs->on_state_change(simulator_.now());
}

JobId Controller::submit(const workload::JobRequest& request) {
  Job& job = jobs_.append(request);
  ++stats_.submitted;
  std::int64_t cores = std::max<std::int64_t>(request.requested_cores, 1);
  std::int64_t cores_per_node = cluster_.topology().cores_per_node();
  // A width past the machine (and past int32) is rejected below either way.
  job.width = static_cast<std::int32_t>(
      std::min<std::int64_t>((cores + cores_per_node - 1) / cores_per_node,
                             std::int64_t{cluster_.topology().total_nodes()} + 1));

  if (job.width > cluster_.topology().total_nodes()) {
    job.state = JobState::Killed;
    job.end_time = simulator_.now();
    ++stats_.rejected;
    return job.id();
  }

  pending_.insert(job, simulator_.now());
  if (shadow_valid_) {
    quick_attempt(job);
  } else {
    request_schedule();
  }
  return job.id();
}

void Controller::quick_attempt(Job& job) {
  ++stats_.quick_attempts;
  double stretch = governor_ != nullptr ? governor_->max_walltime_stretch() : 1.0;
  auto est_walltime = static_cast<sim::Duration>(
      static_cast<double>(job.request.requested_walltime) * stretch);
  sim::Time est_end = simulator_.now() + est_walltime;
  // EASY guard: must not delay the reserved head job.
  bool fits = est_end <= shadow_time_ || job.width <= shadow_extra_nodes_;
  if (!fits) return;
  auto admission = plan_start(job);
  if (!admission) return;
  if (est_end > shadow_time_) shadow_extra_nodes_ -= job.width;
  pending_.erase(job);
  start_job(job, *admission);
}

void Controller::request_schedule() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  simulator_.schedule_at(simulator_.now(), *this, kPass);
}

void Controller::on_event(const sim::Event& event) {
  switch (static_cast<EventKind>(event.kind)) {
    case kPass:
      pass_scheduled_ = false;
      full_pass();
      return;
    case kJobEnd: {
      // A kill or a rescale since this event was scheduled left the job
      // with another live end, or none.
      Job& job = job_for_update(event.arg);
      if (job.end_event == event.seq) finish_job(job);
      return;
    }
    case kCapBoundary:
      // Admission conditions change at the boundaries.
      ++epoch_;
      notify_state_change();
      request_schedule();
      return;
    case kMaintenanceBoundary:
      // Availability changes at the boundaries.
      ++epoch_;
      request_schedule();
      return;
    case kSwitchOffBegin:
      begin_switch_off(event.arg);
      return;
    case kSwitchOffEnd:
      end_switch_off(event.arg);
      return;
    case kShutdownDone: {
      const auto node = static_cast<cluster::NodeId>(event.arg);
      if (cluster_.state(node) == cluster::NodeState::ShuttingDown) {
        cluster_.set_state(node, cluster::NodeState::Off);
        ++epoch_;
        notify_state_change();
      }
      return;
    }
    case kBootDone: {
      const auto node = static_cast<cluster::NodeId>(event.arg);
      if (cluster_.state(node) == cluster::NodeState::Booting) {
        cluster_.set_state(node, cluster::NodeState::Idle);
        ++epoch_;
        notify_state_change();
        request_schedule();
      }
      return;
    }
  }
}

void Controller::compute_shadow(const Job& head) {
  sim::Time now = simulator_.now();
  std::int32_t required = head.width;
  std::int32_t free = cluster_.count(cluster::NodeState::Idle);

  if (free >= required) {
    // Head is power-blocked, not node-blocked: it can start when the
    // binding cap window closes (or when jobs free power — approximated by
    // the earliest running-job end).
    sim::Time cap_end = sim::kTimeMax;
    reservations_.for_each_active(
        ReservationKind::Powercap, now,
        [&cap_end](const Reservation& cap) { cap_end = std::min(cap_end, cap.end); });
    sim::Time first_end =
        running_by_end_.empty() ? sim::kTimeMax : running_by_end_.begin()->est_end;
    shadow_time_ = std::min(cap_end, first_end);
    shadow_extra_nodes_ = 0;  // conservative: power is the scarce resource
    shadow_valid_ = true;
    return;
  }

  shadow_time_ = sim::kTimeMax;
  for (const RunningJob& running : running_by_end_) {
    free += running.job->width;
    if (free >= required) {
      shadow_time_ = running.est_end;
      break;
    }
  }
  shadow_extra_nodes_ = std::max(0, free - required);
  shadow_valid_ = true;
}

std::optional<PowerGovernor::Admission> Controller::plan_start(const Job& job) {
  std::int32_t count = job.width;
  if (count > cluster_.count(cluster::NodeState::Idle)) return std::nullopt;

  // Admission verdicts depend on the allocation only through its width
  // (PowerGovernor purity contract), so a cached rejection for this class
  // settles the attempt before any selector walk.
  if (governor_ != nullptr && governor_->admission_known_rejected(job, count)) {
    ++stats_.admission_fast_fails;
    return std::nullopt;
  }

  sim::Time now = simulator_.now();
  double stretch = governor_ != nullptr ? governor_->max_walltime_stretch() : 1.0;
  auto est_walltime = static_cast<sim::Duration>(
      static_cast<double>(job.request.requested_walltime) * stretch);
  sim::Time horizon = now + est_walltime + config_.shutdown_delay;

  // Selection-failure fast path: within one generation a failed selection
  // of width W proves every width >= W fails (the selectors collect all
  // available nodes, so success is monotone in width).
  bool same_fail_generation =
      sel_fail_epoch_ == epoch_ && sel_fail_book_version_ == reservations_.version() &&
      sel_fail_now_ == now && sel_fail_horizon_ == horizon;
  if (same_fail_generation && count >= sel_fail_width_) {
    ++stats_.selector_fast_fails;
    return std::nullopt;
  }

  blocked_.ensure(reservations_, now, horizon, cluster_.topology().total_nodes());
  SelectionContext ctx{cluster_, blocked_};
  if (!selector_->select(ctx, count, picked_)) {
    if (same_fail_generation) {
      sel_fail_width_ = std::min(sel_fail_width_, count);
    } else {
      sel_fail_epoch_ = epoch_;
      sel_fail_book_version_ = reservations_.version();
      sel_fail_now_ = now;
      sel_fail_horizon_ = horizon;
      sel_fail_width_ = count;
    }
    return std::nullopt;
  }

  if (governor_ != nullptr) return governor_->admit(job, picked_);
  PowerGovernor::Admission admission;
  admission.freq = cluster_.frequencies().max_index();
  admission.scaled_runtime = job.request.base_runtime;
  admission.scaled_walltime = job.request.requested_walltime;
  return admission;
}

void Controller::start_job(Job& job, const PowerGovernor::Admission& admission) {
  sim::Time now = simulator_.now();
  job.state = JobState::Running;
  job.start_time = now;
  job.nodes = take_node_list(job.width);
  job.nodes.assign(picked_.begin(), picked_.end());
  job.freq = admission.freq;
  job.scaled_runtime = admission.scaled_runtime;
  job.scaled_walltime = admission.scaled_walltime;

  for (cluster::NodeId node : job.nodes) {
    PS_CHECK_MSG(cluster_.state(node) == cluster::NodeState::Idle,
                 "start_job on non-idle node");
  }
  cluster_.set_state(job.nodes, cluster::NodeState::Busy, job.freq);

  schedule_end(job);

  ++stats_.started;
  ++epoch_;
  for (ControllerObserver* obs : observers_) obs->on_job_start(job);
  notify_state_change();
}

std::vector<cluster::NodeId> Controller::take_node_list(std::int32_t width) {
  auto width_class =
      static_cast<std::size_t>(std::bit_width(static_cast<std::uint32_t>(width - 1)));
  std::vector<std::vector<cluster::NodeId>>& spares = spare_nodes_[width_class];
  std::vector<cluster::NodeId> nodes;
  if (spares.empty()) {
    nodes.reserve(std::size_t{1} << width_class);
  } else {
    nodes = std::move(spares.back());
    spares.pop_back();
  }
  return nodes;
}

void Controller::recycle_node_list(Job& job) {
  auto capacity_class = static_cast<std::size_t>(std::bit_width(job.nodes.capacity()) - 1);
  job.nodes.clear();
  spare_nodes_[capacity_class].push_back(std::move(job.nodes));
}

void Controller::schedule_end(Job& job) {
  sim::Duration lifetime = std::min(job.scaled_runtime, job.scaled_walltime);
  job.end_event = simulator_.schedule_at(job.start_time + lifetime, *this, kJobEnd, job.id());
  RunningJob entry{job.start_time + job.scaled_walltime, job.id(), &job};
  if (spare_running_.empty()) {
    running_by_end_.insert(entry);
    return;
  }
  RunningSet::node_type node = std::move(spare_running_.back());
  spare_running_.pop_back();
  node.value() = entry;
  running_by_end_.insert(std::move(node));
}

void Controller::drop_end(Job& job) {
  job.end_event = sim::kInvalidEventId;
  RunningSet::node_type node =
      running_by_end_.extract({job.start_time + job.scaled_walltime, job.id(), &job});
  PS_CHECK(!node.empty());
  spare_running_.push_back(std::move(node));
}

void Controller::power_node_off(cluster::NodeId node) {
  if (config_.shutdown_delay == 0) {
    cluster_.set_state(node, cluster::NodeState::Off);
    return;
  }
  cluster_.set_state(node, cluster::NodeState::ShuttingDown);
  simulator_.schedule_at(simulator_.now() + config_.shutdown_delay, *this, kShutdownDone, node);
}

bool Controller::release_node(cluster::NodeId node) {
  sim::Time now = simulator_.now();
  bool switch_off = false;
  reservations_.for_each_active(
      ReservationKind::SwitchOff, now, [&switch_off, node](const Reservation& res) {
        switch_off = switch_off ||
                     std::binary_search(res.nodes.begin(), res.nodes.end(), node);
      });
  if (switch_off) power_node_off(node);  // opportunistic shutdown inside the window
  return switch_off;
}

void Controller::teardown_running_job(Job& job, JobState final_state) {
  sim::Time now = simulator_.now();

  drop_end(job);

  released_idle_.clear();
  for (cluster::NodeId node : job.nodes) {
    if (!release_node(node)) released_idle_.push_back(node);
  }
  cluster_.set_state(released_idle_, cluster::NodeState::Idle);
  job.state = final_state;
  job.end_time = now;

  double used_core_seconds =
      static_cast<double>(std::int64_t{job.width} * cluster_.topology().cores_per_node()) *
      sim::to_seconds(now - job.start_time);
  fairshare_.charge(job.request.user, used_core_seconds, now);

  if (final_state == JobState::Killed) {
    ++stats_.killed;
  } else {
    ++stats_.completed;
  }
  ++epoch_;
  for (ControllerObserver* obs : observers_) obs->on_job_end(job);
  recycle_node_list(job);
  notify_state_change();
}

void Controller::finish_job(Job& job) {
  PS_CHECK_MSG(job.state == JobState::Running, "finish_job on non-running job");
  // The event fired at start + min(runtime, walltime); every rescale
  // rescheduled it from the durations read here.
  bool killed_by_walltime = job.scaled_walltime < job.scaled_runtime;
  teardown_running_job(job, killed_by_walltime ? JobState::Killed : JobState::Completed);
  request_schedule();
}

void Controller::kill_job(JobId id) {
  Job& job = job_for_update(id);
  PS_CHECK_MSG(job.state == JobState::Running, "kill_job on non-running job");
  teardown_running_job(job, JobState::Killed);
}

void Controller::rescale_running_job(JobId id, cluster::FreqIndex new_freq,
                                     double remaining_ratio) {
  Job& job = job_for_update(id);
  PS_CHECK_MSG(job.state == JobState::Running, "rescale of non-running job");
  PS_CHECK_MSG(remaining_ratio > 0.0, "remaining_ratio must be positive");
  if (job.freq == new_freq) return;
  sim::Time now = simulator_.now();

  drop_end(job);

  cluster::FreqIndex old_freq = job.freq;
  sim::Time old_est_end = job.start_time + job.scaled_walltime;
  sim::Duration elapsed = now - job.start_time;
  auto scale_remaining = [&](sim::Duration total) {
    sim::Duration remaining = std::max<sim::Duration>(total - elapsed, 0);
    return elapsed + static_cast<sim::Duration>(
                         std::llround(static_cast<double>(remaining) * remaining_ratio));
  };
  job.scaled_runtime = scale_remaining(job.scaled_runtime);
  job.scaled_walltime = scale_remaining(job.scaled_walltime);
  job.freq = new_freq;
  cluster_.set_state(job.nodes, cluster::NodeState::Busy, new_freq);

  schedule_end(job);

  ++epoch_;
  for (ControllerObserver* obs : observers_) {
    obs->on_job_rescaled(job, old_freq, old_est_end);
  }
  notify_state_change();
}

const Job& Controller::job(JobId id) const {
  const Job* job = jobs_.find(id);
  PS_CHECK_MSG(job != nullptr, "unknown job id");
  return *job;
}

void Controller::full_pass() {
  ++stats_.full_passes;
  if (pending_.empty()) {
    shadow_valid_ = false;
    return;
  }
  if (pass_epoch_ == epoch_) return;  // nothing changed since last pass
  pass_epoch_ = epoch_;

  sim::Time now = simulator_.now();
  double stretch = governor_ != nullptr ? governor_->max_walltime_stretch() : 1.0;
  shadow_valid_ = false;
  bool head_blocked = false;
  bool started = false;
  std::size_t scanned_after_head = 0;
  // The walk visits the starts, the blocked head and at most
  // backfill_depth more; the band merge prices only those and the band
  // heads, in the order of a full sort of the queue.
  pending_.advance(now);
  pending_.begin_pass(now, config_.fairshare_enabled ? &fairshare_ : nullptr);

  for (;;) {
    if (head_blocked && ++scanned_after_head > config_.backfill_depth) break;
    Job* next = pending_.next();
    if (next == nullptr) break;
    Job& job = *next;
    if (!head_blocked) {
      auto admission = plan_start(job);
      if (admission) {
        pending_.take();
        start_job(job, *admission);
        started = true;
        continue;
      }
      compute_shadow(job);
      head_blocked = true;
      continue;  // head stays pending; everything below is backfill
    }

    auto est_walltime = static_cast<sim::Duration>(
        static_cast<double>(job.request.requested_walltime) * stretch);
    sim::Time est_end = now + est_walltime;
    bool fits = est_end <= shadow_time_ || job.width <= shadow_extra_nodes_;
    if (!fits) continue;
    auto admission = plan_start(job);
    if (!admission) continue;
    if (est_end > shadow_time_) shadow_extra_nodes_ -= job.width;
    pending_.take();
    start_job(job, *admission);
    started = true;
    ++stats_.backfill_starts;
  }
  pending_.end_pass();

  // Starting jobs bumped the epoch; this pass already accounted for it.
  if (started) pass_epoch_ = epoch_;
  for (ControllerObserver* obs : observers_) obs->on_pass(now);
}

std::size_t Controller::audit_pass_order() const {
  sim::Time now = simulator_.now();
  const FairShare* fairshare = config_.fairshare_enabled ? &fairshare_ : nullptr;
  // Mid-pass (from an observer) the copy drops the jobs the pass started.
  PendingBands merge = pending_;
  merge.end_pass();
  merge.advance(now);

  std::vector<PendingBands::Priced> reference;
  reference.reserve(merge.size());
  merge.for_each([&](const Job& job) {
    double fs = fairshare != nullptr ? fairshare->factor(job.request.user) : 1.0;
    reference.push_back(
        {merge.priority().compute(job, now, fs), job.request.submit_time, job.id()});
  });
  std::sort(reference.begin(), reference.end(), PendingBands::runs_before);

  merge.begin_pass(now, fairshare);
  for (const PendingBands::Priced& expected : reference) {
    const Job* job = merge.next();
    PS_CHECK_MSG(job != nullptr && job->id() == expected.id,
                 "pass order differs from a full sort of the pending queue");
  }
  PS_CHECK_MSG(merge.next() == nullptr, "pass order visits a job twice");
  return reference.size();
}

ReservationId Controller::add_powercap_reservation(sim::Time start, sim::Time end,
                                                   double watts) {
  Reservation reservation;
  reservation.kind = ReservationKind::Powercap;
  reservation.start = start;
  reservation.end = end;
  reservation.watts = watts;
  ReservationId id = reservations_.add(std::move(reservation));

  simulator_.schedule_at(start, *this, kCapBoundary);
  if (end != sim::kTimeMax) simulator_.schedule_at(end, *this, kCapBoundary);
  ++epoch_;
  request_schedule();
  return id;
}

ReservationId Controller::add_maintenance_reservation(sim::Time start, sim::Time end,
                                                      std::vector<cluster::NodeId> nodes) {
  Reservation reservation;
  reservation.kind = ReservationKind::Maintenance;
  reservation.start = start;
  reservation.end = end;
  reservation.nodes = std::move(nodes);
  ReservationId id = reservations_.add(std::move(reservation));
  simulator_.schedule_at(start, *this, kMaintenanceBoundary);
  if (end != sim::kTimeMax) simulator_.schedule_at(end, *this, kMaintenanceBoundary);
  ++epoch_;
  request_schedule();
  return id;
}

ReservationId Controller::add_switch_off_reservation(sim::Time start, sim::Time end,
                                                     std::vector<cluster::NodeId> nodes,
                                                     double planned_saving_watts,
                                                     bool permissive) {
  Reservation reservation;
  reservation.kind = ReservationKind::SwitchOff;
  reservation.start = start;
  reservation.end = end;
  reservation.nodes = std::move(nodes);
  reservation.planned_saving_watts = planned_saving_watts;
  reservation.permissive = permissive;
  ReservationId id = reservations_.add(std::move(reservation));

  sim::Time shutdown_begin = std::max<sim::Time>(start - config_.shutdown_delay, 0);
  simulator_.schedule_at(shutdown_begin, *this, kSwitchOffBegin, id);
  if (end != sim::kTimeMax) simulator_.schedule_at(end, *this, kSwitchOffEnd, id);
  ++epoch_;
  request_schedule();
  return id;
}

void Controller::begin_switch_off(ReservationId id) {
  const Reservation& res = reservations_.find(id);
  std::size_t skipped = 0;
  for (cluster::NodeId node : res.nodes) {
    cluster::NodeState state = cluster_.state(node);
    if (state == cluster::NodeState::Idle) {
      power_node_off(node);
    } else if (state == cluster::NodeState::Busy) {
      // Permissive reservations expect this: the node powers off when its
      // job releases it (release_node). Under strict blocking a busy node
      // here means a job outran the blocking horizon.
      ++skipped;
    }
  }
  if (skipped > 0 && !res.permissive) {
    PS_LOG(Warn) << "switch-off reservation " << id << ": " << skipped
                 << " nodes busy at shutdown time, left powered";
  }
  ++epoch_;
  notify_state_change();
  request_schedule();
}

void Controller::end_switch_off(ReservationId id) {
  for (cluster::NodeId node : reservations_.find(id).nodes) {
    if (cluster_.state(node) != cluster::NodeState::Off) continue;
    if (config_.boot_delay == 0) {
      cluster_.set_state(node, cluster::NodeState::Idle);
    } else {
      cluster_.set_state(node, cluster::NodeState::Booting);
      simulator_.schedule_at(simulator_.now() + config_.boot_delay, *this, kBootDone, node);
    }
  }
  ++epoch_;
  notify_state_change();
  request_schedule();
}

}  // namespace ps::rjms
