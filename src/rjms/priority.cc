#include "rjms/priority.h"

#include <algorithm>

#include "util/check.h"

namespace ps::rjms {

PriorityCalculator::PriorityCalculator(PriorityWeights weights, std::int64_t total_cores)
    : weights_(weights), total_cores_(total_cores) {
  PS_CHECK_MSG(total_cores_ > 0, "priority: total_cores must be positive");
  PS_CHECK_MSG(weights_.age_saturation > 0, "priority: age_saturation must be positive");
}

double PriorityCalculator::compute(const Job& job, sim::Time now, double fs_factor) const {
  sim::Duration wait = std::max<sim::Duration>(now - job.request.submit_time, 0);
  double age_factor = std::min(
      1.0, static_cast<double>(wait) / static_cast<double>(weights_.age_saturation));
  // SLURM's job_size factor favours larger jobs (helps them beat the
  // starvation that backfilling of small jobs would otherwise cause).
  double size_factor =
      std::min(1.0, static_cast<double>(job.request.requested_cores) /
                        static_cast<double>(total_cores_));
  return weights_.age * age_factor + weights_.size * size_factor +
         weights_.fair_share * fs_factor;
}

}  // namespace ps::rjms
