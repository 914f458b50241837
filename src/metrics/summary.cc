#include "metrics/summary.h"

#include "util/strings.h"

namespace ps::metrics {

RunSummary summarize(const Recorder& recorder, const rjms::Controller& controller,
                     sim::Time from, sim::Time to) {
  RunSummary s;
  s.from = from;
  s.to = to;
  s.energy_joules = recorder.energy_joules(from, to);
  s.work_core_seconds = recorder.work_core_seconds(from, to);
  s.effective_work_core_seconds = recorder.effective_work_core_seconds(from, to);
  s.max_possible_work = static_cast<double>(controller.cluster().topology().total_cores()) *
                        sim::to_seconds(to - from);
  s.utilization = s.max_possible_work > 0 ? s.work_core_seconds / s.max_possible_work : 0.0;
  double span_seconds = sim::to_seconds(to - from);
  s.mean_watts = span_seconds > 0 ? s.energy_joules / span_seconds : 0.0;
  s.max_watts = recorder.max_watts(from, to);
  s.cap_violation_seconds = recorder.cap_violation_seconds(from, to);

  double wait_sum = 0.0;
  controller.for_each_job([&](const rjms::Job& job) {
    ++s.submitted_jobs;
    if (job.start_time >= from && job.start_time < to) {
      ++s.launched_jobs;
      wait_sum += sim::to_seconds(job.start_time - job.request.submit_time);
    }
    if (job.terminal() && job.end_time >= from && job.end_time < to) {
      if (job.state == rjms::JobState::Killed && job.start_time >= 0) {
        ++s.killed_jobs;
      } else if (job.state == rjms::JobState::Completed) {
        ++s.completed_jobs;
      }
    }
  });
  if (s.launched_jobs > 0) {
    s.mean_wait_seconds = wait_sum / static_cast<double>(s.launched_jobs);
  }
  return s;
}

std::string RunSummary::describe() const {
  std::string out;
  out += strings::format("window: [%s, %s)\n", strings::human_duration_ms(from).c_str(),
                         strings::human_duration_ms(to).c_str());
  out += strings::format("  energy: %.4g MJ (mean %.4g kW, peak %.4g kW)\n",
                         energy_joules / 1e6, mean_watts / 1e3, max_watts / 1e3);
  out += strings::format("  work: %.4g core-hours (%s of maximum); "
                         "effective (deg-corrected): %.4g core-hours\n",
                         work_core_seconds / 3600.0,
                         strings::percent(utilization).c_str(),
                         effective_work_core_seconds / 3600.0);
  out += strings::format(
      "  jobs: %llu launched, %llu completed, %llu killed (of %llu submitted), "
      "mean wait %.0fs\n",
      static_cast<unsigned long long>(launched_jobs),
      static_cast<unsigned long long>(completed_jobs),
      static_cast<unsigned long long>(killed_jobs),
      static_cast<unsigned long long>(submitted_jobs), mean_wait_seconds);
  out += strings::format("  cap violations: %.1fs", cap_violation_seconds);
  return out;
}

}  // namespace ps::metrics
