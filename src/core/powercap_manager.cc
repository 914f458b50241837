#include "core/powercap_manager.h"

#include <algorithm>

#include "util/check.h"
#include "util/log.h"

namespace ps::core {

namespace {

/// The running jobs in running_by_end() order. A snapshot: rescaling
/// re-files jobs in that set.
std::vector<const rjms::Job*> running_jobs(const rjms::Controller& controller) {
  std::vector<const rjms::Job*> running;
  running.reserve(controller.running_count());
  for (const rjms::Controller::RunningJob& entry : controller.running_by_end()) {
    running.push_back(entry.job);
  }
  return running;
}

}  // namespace

PowercapManager::PowercapManager(rjms::Controller& controller, PowercapConfig config)
    : controller_(controller),
      config_(config),
      governor_(controller, config),
      planner_(controller, config) {
  if (config_.policy != Policy::None) {
    controller_.set_governor(&governor_);
    controller_.add_observer(&governor_);
  }
}

double PowercapManager::lambda_to_watts(double lambda) const {
  PS_CHECK_MSG(lambda > 0.0, "lambda must be positive");
  return lambda * controller_.cluster().power_model().max_cluster_watts();
}

rjms::ReservationId PowercapManager::add_powercap(sim::Time start, sim::Time end,
                                                  double watts) {
  return add_powercap_schedule({{start, end, watts}}).front();
}

std::vector<rjms::ReservationId> PowercapManager::add_powercap_schedule(
    const std::vector<PlanWindow>& windows) {
  // Register every cap reservation before planning: the governor's window
  // pricing then sees the whole schedule from the first admission on, and
  // the planner can reuse one plan across same-cap windows.
  std::vector<rjms::ReservationId> ids;
  ids.reserve(windows.size());
  for (const PlanWindow& window : windows) {
    PS_CHECK_MSG(window.cap_watts > 0.0, "powercap watts must be positive");
    ids.push_back(
        controller_.add_powercap_reservation(window.start, window.end, window.cap_watts));
  }
  if (config_.policy == Policy::None || windows.empty()) return ids;

  std::vector<OfflinePlan> plans = planner_.plan_windows(windows);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    plans_.push_back(std::move(plans[i]));
    arm_window_hooks(ids[i], windows[i].start, windows[i].end);
  }
  return ids;
}

void PowercapManager::arm_window_hooks(rjms::ReservationId cap_id, sim::Time start,
                                       sim::Time end) {
  sim::Simulator& simulator = controller_.simulator();
  if (config_.kill_on_overcap) simulator.schedule_at(start, *this, kEnforce, cap_id);
  bool scalable = config_.policy == Policy::Dvfs || config_.policy == Policy::Mix ||
                  config_.policy == Policy::Auto;
  if (config_.dynamic_dvfs && scalable) {
    simulator.schedule_at(start, *this, kRescaleDown, cap_id);
    if (end != sim::kTimeMax) simulator.schedule_at(end, *this, kRescaleUp);
  }
}

void PowercapManager::on_event(const sim::Event& event) {
  switch (static_cast<EventKind>(event.kind)) {
    case kEnforce:
      enforce_cap(event.arg);
      return;
    case kRescaleDown:
      rescale_down_for_window(event.arg);
      return;
    case kRescaleUp:
      rescale_up_after_window();
      return;
  }
}

void PowercapManager::rescale_down_for_window(rjms::ReservationId cap_id) {
  const rjms::Reservation* cap = controller_.reservations().find(cap_id);
  if (cap == nullptr) return;
  std::optional<cluster::FreqIndex> target = governor_.optimal_window_freq(*cap);
  cluster::FreqIndex floor = target.value_or(governor_.min_allowed_freq());
  const DegradationModel& degradation = governor_.degradation();

  std::size_t rescaled = 0;
  for (const rjms::Job* running : running_jobs(controller_)) {
    const rjms::Job& job = *running;
    if (job.freq <= floor) continue;
    double degmin = governor_.degmin_for(job);
    double ratio =
        degradation.factor(floor, degmin) / degradation.factor(job.freq, degmin);
    controller_.rescale_running_job(job.id(), floor, ratio);
    ++rescaled;
  }
  if (rescaled > 0) {
    PS_LOG(Info) << "dynamic DVFS: slowed " << rescaled << " running jobs to level "
                 << floor << " for the cap window";
  }
}

void PowercapManager::rescale_up_after_window() {
  double cap_now = controller_.reservations().cap_at(controller_.simulator().now());
  const DegradationModel& degradation = governor_.degradation();
  const cluster::PowerModel& pm = controller_.cluster().power_model();
  cluster::FreqIndex fmax = governor_.max_allowed_freq();

  for (const rjms::Job* running : running_jobs(controller_)) {
    const rjms::Job& job = *running;
    if (job.freq >= fmax) continue;
    // Highest frequency that keeps the live measurement under the cap
    // active now (none -> fmax directly).
    auto nodes = static_cast<double>(job.nodes.size());
    double current = nodes * pm.frequencies().watts(job.freq);
    cluster::FreqIndex best = job.freq;
    for (cluster::FreqIndex f = fmax + 1; f-- > job.freq;) {
      double delta = nodes * pm.frequencies().watts(f) - current;
      if (controller_.cluster().watts() + delta <= cap_now + 1e-6) {
        best = f;
        break;
      }
      if (f == job.freq) break;
    }
    if (best == job.freq) continue;
    double degmin = governor_.degmin_for(job);
    double ratio =
        degradation.factor(best, degmin) / degradation.factor(job.freq, degmin);
    controller_.rescale_running_job(job.id(), best, ratio);
  }
}

rjms::ReservationId PowercapManager::add_powercap_now(double watts) {
  return add_powercap(controller_.simulator().now(), sim::kTimeMax, watts);
}

void PowercapManager::enforce_cap(rjms::ReservationId cap_id) {
  const rjms::Reservation* cap = controller_.reservations().find(cap_id);
  if (cap == nullptr) return;  // removed meanwhile
  const double watts = cap->watts;
  // Paper §IV-B: by default no extreme actions are taken; sites may opt in
  // to killing "the necessary number of jobs ... until the power
  // consumption of the cluster drops". Newest-first loses the least work.
  std::size_t killed = 0;
  while (controller_.cluster().watts() > watts && controller_.running_count() > 0) {
    rjms::JobId newest = -1;
    sim::Time newest_start = -1;
    for (const rjms::Controller::RunningJob& running : controller_.running_by_end()) {
      sim::Time start = running.job->start_time;
      if (start > newest_start || (start == newest_start && running.id > newest)) {
        newest = running.id;
        newest_start = start;
      }
    }
    if (newest < 0) break;
    controller_.kill_job(newest);
    ++killed;
  }
  if (killed > 0) {
    PS_LOG(Warn) << "powercap extreme action: killed " << killed
                 << " jobs to drop below " << watts << " W";
  }
}

}  // namespace ps::core
