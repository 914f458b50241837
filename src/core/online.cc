#include "core/online.h"

#include <algorithm>
#include <cmath>

#include "apps/calibrated_apps.h"
#include "util/check.h"

namespace ps::core {

namespace {
/// Absorbs sub-milliwatt floating-point noise in cap comparisons.
constexpr double kWattsEpsilon = 1e-6;
}  // namespace

OnlineGovernor::OnlineGovernor(rjms::Controller& controller, const PowercapConfig& config)
    : controller_(controller),
      config_(config),
      degradation_(controller.cluster().frequencies(), config.default_degmin) {
  const cluster::FrequencyTable& table = controller_.cluster().frequencies();
  max_freq_ = table.max_index();
  switch (config_.policy) {
    case Policy::None:
    case Policy::Shut:
    case Policy::Idle:
      min_freq_ = table.max_index();  // DVFS not allowed
      break;
    case Policy::Dvfs:
    case Policy::Auto:
      min_freq_ = table.min_index();
      break;
    case Policy::Mix: {
      auto floor = table.lowest_at_or_above(config_.mix_min_ghz);
      PS_CHECK_MSG(floor.has_value(), "MIX floor above frequency table");
      min_freq_ = *floor;
      break;
    }
  }
  // Pessimistic blocking-horizon stretch: the worst degradation any
  // admitted job could get under this policy.
  double worst_degmin = config_.default_degmin;
  if (config_.use_app_degmin) {
    for (const apps::AppModel& app : apps::measured_apps()) {
      worst_degmin = std::max(worst_degmin, app.degmin());
    }
  }
  walltime_stretch_ = degradation_.factor(min_freq_, worst_degmin);
}

double OnlineGovernor::degmin_for(const rjms::Job& job) const {
  if (config_.use_app_degmin && !job.request.app.empty()) {
    if (auto app = apps::by_name(job.request.app)) return app->degmin();
  }
  return config_.default_degmin;
}

double OnlineGovernor::busy_delta(cluster::FreqIndex f) const {
  const cluster::PowerModel& pm = controller_.cluster().power_model();
  return pm.frequencies().watts(f) - pm.idle_watts();
}

OnlineGovernor::CapCache& OnlineGovernor::cache_for(const rjms::Reservation& cap) const {
  auto it = future_caps_.find(cap.id);
  if (it != future_caps_.end()) return it->second;
  // First query for this window: fold in the jobs already running whose
  // walltime-estimated end reaches past the window start.
  CapCache cache;
  for (const rjms::Controller::RunningJob& running : controller_.running_by_end()) {
    if (running.est_end <= cap.start) continue;
    cache.persisting_delta += job_delta(*running.job, running.job->freq);
  }
  return future_caps_.emplace(cap.id, cache).first->second;
}

template <typename Fn>
void OnlineGovernor::for_each_future_cap(Fn&& fn) {
  sim::Time now = controller_.simulator().now();
  for (auto it = future_caps_.begin(); it != future_caps_.end();) {
    const rjms::Reservation& cap = controller_.reservations().find(it->first);
    if (cap.start <= now) {
      it = future_caps_.erase(it);  // started: never projected again
      continue;
    }
    fn(cap, it->second);
    ++it;
  }
}

void OnlineGovernor::on_job_start(const rjms::Job& job) {
  double delta = job_delta(job, job.freq);
  running_busy_delta_ += delta;
  sim::Time est_end = job.start_time + job.scaled_walltime;
  for_each_future_cap([&](const rjms::Reservation& cap, CapCache& cache) {
    if (est_end > cap.start) cache.persisting_delta += delta;
  });
}

void OnlineGovernor::on_job_rescaled(const rjms::Job& job, cluster::FreqIndex old_freq,
                                     sim::Time old_est_end) {
  double old_delta = job_delta(job, old_freq);
  double new_delta = job_delta(job, job.freq);
  running_busy_delta_ += new_delta - old_delta;

  sim::Time new_est_end = job.start_time + job.scaled_walltime;
  for_each_future_cap([&](const rjms::Reservation& cap, CapCache& cache) {
    if (old_est_end > cap.start) cache.persisting_delta -= old_delta;
    if (new_est_end > cap.start) cache.persisting_delta += new_delta;
  });
}

void OnlineGovernor::on_job_end(const rjms::Job& job) {
  double delta = job_delta(job, job.freq);
  running_busy_delta_ -= delta;
  sim::Time est_end = job.start_time + job.scaled_walltime;
  for_each_future_cap([&](const rjms::Reservation& cap, CapCache& cache) {
    if (est_end > cap.start) cache.persisting_delta -= delta;
  });
}

std::optional<cluster::FreqIndex> OnlineGovernor::optimal_window_freq(
    const rjms::Reservation& cap) const {
  std::uint64_t version = controller_.reservations().version();
  auto slot = static_cast<std::size_t>(cap.id);
  if (slot >= f_star_by_id_.size()) f_star_by_id_.resize(slot + 1);
  WindowFreq& entry = f_star_by_id_[slot];
  if (entry.version != version) entry = WindowFreq{version, price_window_freq(cap)};
  return entry.f_star;
}

std::optional<cluster::FreqIndex> OnlineGovernor::price_window_freq(
    const rjms::Reservation& cap) const {
  const cluster::PowerModel& pm = controller_.cluster().power_model();
  const cluster::Topology& topo = controller_.cluster().topology();

  // Aggregate the planned shutdowns covering the window. The reservation
  // stores its idle-referenced saving; the infrastructure+BMC part of it is
  // frequency-independent: bonus = saving_idle - n * (IdleWatts - DownWatts).
  double n_off = 0.0;
  double bonus_part = 0.0;
  controller_.reservations().for_each_overlapping(
      rjms::ReservationKind::SwitchOff, cap.start, cap.end,
      [&](const rjms::Reservation& so) {
        auto n = static_cast<double>(so.nodes.size());
        n_off += n;
        bonus_part += so.planned_saving_watts - n * (pm.idle_watts() - pm.down_watts());
      });
  double active = static_cast<double>(topo.total_nodes()) - n_off;

  for (cluster::FreqIndex f = max_freq_ + 1; f-- > min_freq_;) {
    double watts = active * pm.frequencies().watts(f) + n_off * pm.down_watts() +
                   pm.infra_watts_all_on() - bonus_part;
    if (watts <= cap.watts + kWattsEpsilon) return f;
    if (f == min_freq_) break;
  }
  return std::nullopt;
}

double OnlineGovernor::projected_watts_at(const rjms::Reservation& cap) const {
  sim::Time now = controller_.simulator().now();
  const cluster::Cluster& cluster = controller_.cluster();
  // All-idle baseline for the currently-powered topology: strip the busy
  // surplus of running jobs from the live measurement.
  double watts = cluster.watts() - running_busy_delta_;

  // Planned switch-offs: subtract windows that will be active at the cap
  // start but are not yet executed; add back those active now that end
  // before the cap starts.
  for (const rjms::Reservation& res : controller_.reservations().all()) {
    if (res.kind != rjms::ReservationKind::SwitchOff) continue;
    bool active_then = res.active_at(cap.start);
    bool active_now = res.active_at(now);
    if (active_then && !active_now) watts -= res.planned_saving_watts;
    if (!active_then && active_now) watts += res.planned_saving_watts;
  }

  // Jobs persisting into the window keep their busy surplus.
  watts += cache_for(cap).persisting_delta;
  return watts;
}

bool OnlineGovernor::is_rejected(sim::Duration walltime, std::int32_t width,
                                 double degmin) const {
  return std::any_of(rejected_.begin(), rejected_.end(), [&](const RejectedClass& rejected) {
    return rejected.walltime == walltime && rejected.width == width &&
           rejected.degmin == degmin;
  });
}

std::optional<cluster::FreqIndex> OnlineGovernor::compute_admission_freq(
    double node_count, sim::Duration walltime, double degmin, sim::Time now) const {
  // The job's stretched span at every allowed level. Spans only grow as
  // the frequency falls (degradation factors do), so each lower level
  // reaches a superset of the windows a higher one reaches.
  spans_.clear();
  sim::Duration longest = 0;
  for (cluster::FreqIndex f = min_freq_; f <= max_freq_; ++f) {
    auto eff_walltime = static_cast<sim::Duration>(
        std::llround(static_cast<double>(walltime) * degradation_.factor(f, degmin)));
    spans_.push_back(eff_walltime);
    longest = std::max(longest, eff_walltime);
  }

  // Windows active at `now` give the instantaneous cap; the future windows
  // some level's span may overlap are those starting in (now, now + longest).
  const rjms::ReservationBook& book = controller_.reservations();
  double cap_now = book.cap_at(now);
  rjms::ReservationBook::StartRun future =
      book.starting_in(rjms::ReservationKind::Powercap, now, now + longest);

  double live_watts = controller_.cluster().watts();
  if (config_.admission == AdmissionMode::Projection) {
    // Id order, priced lazily: which windows get a CapCache, and when,
    // fixes the floating-point bits of their persistence sums.
    windows_.clear();
    for (const rjms::Reservation& cap : future) windows_.push_back(FutureWindow{&cap});
    std::sort(windows_.begin(), windows_.end(),
              [](const FutureWindow& a, const FutureWindow& b) { return a.cap->id < b.cap->id; });
  }

  // Highest frequency first (Algorithm 2 walks downward on failure).
  // PaperLive modes: one walk over the windows in start order, folding each
  // window the falling level's span reaches into a running minimum f* and
  // a "some window has no f*" flag.
  std::size_t reached = 0;
  cluster::FreqIndex min_f_star = max_freq_;
  bool some_window_without_f_star = false;
  for (cluster::FreqIndex f = max_freq_ + 1; f-- > min_freq_;) {
    sim::Time span_end = now + spans_[f - min_freq_];
    double delta = node_count * busy_delta(f);

    // Instantaneous check against the live measurement.
    if (live_watts + delta > cap_now + kWattsEpsilon) continue;
    if (config_.admission == AdmissionMode::Projection) {
      if (fits_projected_windows(span_end, delta)) return f;
      continue;
    }
    for (; reached < future.size() && future[reached].start < span_end; ++reached) {
      std::optional<cluster::FreqIndex> f_star = optimal_window_freq(future[reached]);
      if (f_star.has_value()) {
        min_f_star = std::min(min_f_star, *f_star);
      } else {
        some_window_without_f_star = true;
      }
    }
    // The job is clamped to every reached window's global optimal
    // frequency. A window without one keeps the job pending in
    // PaperLiveStrict ("the job remains pending"); best effort lets only
    // the lowest frequency pass.
    if (f > min_f_star) continue;
    if (some_window_without_f_star &&
        (config_.admission == AdmissionMode::PaperLiveStrict || f > min_freq_)) {
      continue;
    }
    return f;
  }
  return std::nullopt;
}

bool OnlineGovernor::fits_projected_windows(sim::Time span_end, double delta) const {
  for (FutureWindow& window : windows_) {
    const rjms::Reservation& cap = *window.cap;
    if (cap.start >= span_end) continue;  // beyond this level's span
    if (!window.priced) {
      window.projected_watts = projected_watts_at(cap);
      window.priced = true;
    }
    if (window.projected_watts + delta > cap.watts + kWattsEpsilon) return false;
  }
  return true;
}

void OnlineGovernor::refresh_cache_generation(sim::Time now) const {
  std::uint64_t epoch = controller_.epoch();
  std::uint64_t version = controller_.reservations().version();
  if (cache_epoch_ == epoch && cache_book_version_ == version && cache_now_ == now) {
    return;  // generation unchanged
  }
  if (cache_epoch_ == epoch && cache_book_version_ == version && cache_now_ >= 0 &&
      now > cache_now_ && !rejected_.empty()) {
    // Pure time advance. Epoch equality already proves no powercap or
    // switch-off boundary *event* fired in (cache_now_, now] (boundary
    // events bump the epoch), but a boundary landing at or before `now`
    // whose event has not fired yet in this timestep still changes
    // cap_at(now)/active_at(now) for every key. Check against the book.
    const rjms::ReservationBook& book = controller_.reservations();
    sim::Time next_start =
        book.next_start_after(rjms::ReservationKind::Powercap, cache_now_);
    bool landscape_moved =
        book.next_end_after(rjms::ReservationKind::Powercap, cache_now_) <= now ||
        next_start <= now;
    if (!landscape_moved && config_.admission == AdmissionMode::Projection) {
      // Projection additionally reads switch-off active_at(now) in
      // projected_watts_at; PaperLive window pricing does not depend on
      // `now`, so only this mode must clear switch-off boundaries too.
      landscape_moved =
          book.next_end_after(rjms::ReservationKind::SwitchOff, cache_now_) <= now ||
          book.next_start_after(rjms::ReservationKind::SwitchOff, cache_now_) <= now;
    }
    if (!landscape_moved && next_start <= now + cache_max_eff_walltime_) {
      // A strictly-future window start has entered *some* cached span's
      // horizon. Only classes whose own degradation-stretched span reaches
      // it now price a different overlapped-window set — evict exactly
      // those and keep carrying the shorter ones (short jobs keep carrying
      // across time advances while long ones re-price).
      std::size_t before = rejected_.size();
      std::erase_if(rejected_, [&](const RejectedClass& rejected) {
        return next_start <= now + rejected.max_eff_walltime;
      });
      cache_stats_.key_evictions += before - rejected_.size();
      cache_max_eff_walltime_ = 0;
      for (const RejectedClass& rejected : rejected_) {
        cache_max_eff_walltime_ = std::max(cache_max_eff_walltime_, rejected.max_eff_walltime);
      }
      if (rejected_.empty()) landscape_moved = true;  // nothing left to carry
    }
    if (!landscape_moved) {
      cache_now_ = now;
      ++cache_stats_.carries;
      return;
    }
  }
  if (!rejected_.empty()) ++cache_stats_.invalidations;
  rejected_.clear();
  cache_epoch_ = epoch;
  cache_book_version_ = version;
  cache_now_ = now;
  cache_max_eff_walltime_ = 0;
}

bool OnlineGovernor::admission_known_rejected(const rjms::Job& job,
                                              std::int32_t width) const {
  if (config_.policy == Policy::None) return false;
  // Cache-only probe: never computes a fresh verdict, but does move the
  // generation forward (carry or clear) so quiescent-timestep rejections
  // stay probeable.
  refresh_cache_generation(controller_.simulator().now());
  double degmin = degmin_for(job);
  sim::Duration walltime = job.request.requested_walltime;
  if (!is_rejected(walltime, width, degmin)) return false;
  ++cache_stats_.fast_rejects;
  if (config_.audit_admission_cache) {
    ++cache_stats_.audits;
    std::optional<cluster::FreqIndex> fresh = compute_admission_freq(
        static_cast<double>(width), walltime, degmin, cache_now_);
    PS_CHECK_MSG(!fresh.has_value(),
                 "cached rejection diverged from brute-force re-verdict");
  }
  return true;
}

std::optional<rjms::PowerGovernor::Admission> OnlineGovernor::admit(
    const rjms::Job& job, const std::vector<cluster::NodeId>& nodes) {
  if (config_.policy == Policy::None) {
    Admission admission;
    admission.freq = max_freq_;
    admission.scaled_runtime = job.request.base_runtime;
    admission.scaled_walltime = job.request.requested_walltime;
    return admission;
  }

  sim::Time now = controller_.simulator().now();
  double degmin = degmin_for(job);
  auto node_count = static_cast<double>(nodes.size());
  auto width = static_cast<std::int32_t>(nodes.size());
  sim::Duration walltime = job.request.requested_walltime;

  // Generation check: resource-state or reservation changes invalidate the
  // whole cache; a pure time advance carries it when no cap boundary is
  // involved (see refresh_cache_generation).
  refresh_cache_generation(now);

  if (is_rejected(walltime, width, degmin)) {
    ++cache_stats_.hits;
    if (config_.audit_admission_cache) {
      ++cache_stats_.audits;
      std::optional<cluster::FreqIndex> fresh =
          compute_admission_freq(node_count, walltime, degmin, now);
      PS_CHECK_MSG(!fresh.has_value(),
                   "admission cache diverged from brute-force re-verdict");
    }
    return std::nullopt;
  }
  ++cache_stats_.misses;
  std::optional<cluster::FreqIndex> verdict =
      compute_admission_freq(node_count, walltime, degmin, now);
  if (!verdict.has_value()) {
    // The longest span this class's frequency walk considered: the
    // per-class carry check must keep future window starts out of it.
    auto max_eff = static_cast<sim::Duration>(std::llround(
        static_cast<double>(walltime) * degradation_.factor(min_freq_, degmin)));
    rejected_.push_back(RejectedClass{walltime, width, degmin, max_eff});
    cache_max_eff_walltime_ = std::max(cache_max_eff_walltime_, max_eff);
    return std::nullopt;
  }

  double factor = degradation_.factor(*verdict, degmin);
  Admission admission;
  admission.freq = *verdict;
  admission.scaled_runtime = static_cast<sim::Duration>(
      std::llround(static_cast<double>(job.request.base_runtime) * factor));
  admission.scaled_walltime = static_cast<sim::Duration>(
      std::llround(static_cast<double>(job.request.requested_walltime) * factor));
  return admission;
}

}  // namespace ps::core
