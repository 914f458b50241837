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
  if (config_.kill_on_overcap || rescales()) {
    simulator.schedule_at(start, *this, kWindowStart, cap_id);
  }
  if (rescales() && end != sim::kTimeMax) simulator.schedule_at(end, *this, kWindowEnd);
}

bool PowercapManager::rescales() const noexcept {
  return config_.dynamic_dvfs && (config_.policy == Policy::Dvfs ||
                                  config_.policy == Policy::Mix ||
                                  config_.policy == Policy::Auto);
}

void PowercapManager::on_event(const sim::Event& event) {
  switch (static_cast<EventKind>(event.kind)) {
    case kWindowStart:
      on_window_start(controller_.reservations().find(event.arg));
      return;
    case kWindowEnd:
      on_window_end();
      return;
  }
}

template <typename Pick>
std::size_t PowercapManager::distribute(const std::vector<const rjms::Job*>& order,
                                        Pick pick) {
  const cluster::DegradationModel& degradation = governor_.degradation();
  std::size_t changed = 0;
  for (const rjms::Job* job : order) {
    Share share = pick(*job);
    if (!share) {
      controller_.kill_job(job->id());
    } else if (*share != job->freq) {
      double degmin = governor_.degmin_for(*job);
      double ratio = degradation.factor(*share, degmin) / degradation.factor(job->freq, degmin);
      controller_.rescale_running_job(job->id(), *share, ratio);
    } else {
      continue;
    }
    ++changed;
  }
  return changed;
}

void PowercapManager::on_window_start(const rjms::Reservation& cap) {
  // Slow first: a job the slow-down brings under the cap is not killed.
  if (rescales()) {
    cluster::FreqIndex floor =
        governor_.optimal_window_freq(cap).value_or(governor_.min_allowed_freq());
    std::size_t slowed = distribute(running_jobs(controller_), [floor](const rjms::Job& job) {
      return Share(std::min(job.freq, floor));
    });
    if (slowed > 0) {
      PS_LOG(Info) << "dynamic DVFS: slowed " << slowed << " running jobs to level "
                   << floor << " for the cap window";
    }
  }
  if (!config_.kill_on_overcap) return;
  // Paper §IV-B: by default no extreme actions are taken; sites may opt in
  // to killing "the necessary number of jobs ... until the power
  // consumption of the cluster drops". Newest-first loses the least work.
  std::vector<const rjms::Job*> newest_first = running_jobs(controller_);
  std::sort(newest_first.begin(), newest_first.end(),
            [](const rjms::Job* a, const rjms::Job* b) {
              if (a->start_time != b->start_time) return a->start_time > b->start_time;
              return a->id() > b->id();
            });
  const cluster::Cluster& cluster = controller_.cluster();
  const double watts = cap.watts;
  std::size_t killed = distribute(newest_first, [&](const rjms::Job& job) {
    return cluster.watts() > watts ? std::nullopt : Share(job.freq);
  });
  if (killed > 0) {
    PS_LOG(Warn) << "powercap extreme action: killed " << killed
                 << " jobs to drop below " << watts << " W";
  }
}

void PowercapManager::on_window_end() {
  const double cap_now = controller_.reservations().cap_at(controller_.simulator().now());
  const cluster::Cluster& cluster = controller_.cluster();
  const cluster::FrequencyTable& table = cluster.power_model().frequencies();
  const cluster::FreqIndex fmax = governor_.max_allowed_freq();
  distribute(running_jobs(controller_), [&](const rjms::Job& job) {
    auto nodes = static_cast<double>(job.width);
    double current = nodes * table.watts(job.freq);
    for (cluster::FreqIndex f = fmax; f > job.freq; --f) {
      double delta = nodes * table.watts(f) - current;
      if (cluster.watts() + delta <= cap_now + 1e-6) return Share(f);
    }
    return Share(job.freq);
  });
}

}  // namespace ps::core
