#include "workload/synthetic.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic_mixture.h"

namespace ps::workload {

namespace {

using mixture::Drawn;
using mixture::SizeClass;
using mixture::draw_job;
using mixture::kAppMix;

}  // namespace

const char* to_string(Profile profile) noexcept {
  switch (profile) {
    case Profile::MedianJob: return "medianjob";
    case Profile::SmallJob: return "smalljob";
    case Profile::BigJob: return "bigjob";
    case Profile::Day24h: return "24h";
  }
  return "?";
}

GeneratorParams params_for(Profile profile) {
  GeneratorParams params;
  params.name = to_string(profile);
  switch (profile) {
    case Profile::MedianJob:
      params.job_count = 5500;
      break;
    case Profile::SmallJob:
      params.job_count = 7500;
      params.w_tiny = 0.80;
      params.w_medium = 0.1647;
      params.w_large = 0.035;
      params.w_huge = 0.0003;
      break;
    case Profile::BigJob:
      params.job_count = 2800;
      params.w_tiny = 0.52;
      params.w_medium = 0.3672;
      params.w_large = 0.112;
      params.w_huge = 0.0008;
      break;
    case Profile::Day24h:
      params.span = sim::hours(24);
      params.job_count = 26000;
      break;
  }
  return params;
}

GeneratorParams curie_month_params(std::int32_t days, std::size_t job_count) {
  PS_CHECK_MSG(days > 0, "curie_month: days must be > 0");
  GeneratorParams params;
  params.name = "curie_month";
  params.span = sim::hours(24) * days;
  params.job_count = job_count;
  // A small t=0 backlog keeps the first streamed chunk the largest one (the
  // worst case for O(chunk) claims) without tipping the month into overload.
  params.backlog_fraction = 0.02;
  params.w_tiny = 0.72;
  params.w_medium = 0.238;
  params.w_large = 0.06;
  params.w_huge = 0.002;
  return params;
}

std::vector<JobRequest> generate(const GeneratorParams& params, std::uint64_t seed) {
  PS_CHECK_MSG(params.job_count > 0, "generator: job_count must be > 0");
  PS_CHECK_MSG(params.span > 0, "generator: span must be > 0");
  PS_CHECK_MSG(params.backlog_fraction >= 0.0 && params.backlog_fraction <= 1.0,
               "generator: backlog_fraction in [0,1]");
  util::Rng rng(seed);

  const util::WeightedIndex classes(
      {params.w_tiny, params.w_medium, params.w_large, params.w_huge});
  const util::WeightedIndex users(mixture::zipf_user_weights(params.user_count));

  auto backlog =
      static_cast<std::size_t>(params.backlog_fraction * static_cast<double>(params.job_count));
  std::vector<JobRequest> jobs;
  jobs.reserve(params.job_count);

  double mu = std::log(params.overestimate_median);
  for (std::size_t i = 0; i < params.job_count; ++i) {
    auto klass = static_cast<SizeClass>(rng.weighted_index(classes));
    Drawn drawn = draw_job(rng, klass);

    JobRequest job;
    job.submit_time = i < backlog
                          ? 0
                          : static_cast<sim::Time>(rng.uniform(
                                0.0, static_cast<double>(params.span)));
    job.user = static_cast<std::int32_t>(rng.weighted_index(users));
    job.requested_cores = drawn.cores;
    job.base_runtime = drawn.runtime;
    double ratio = rng.lognormal(mu, params.overestimate_sigma);
    auto walltime = static_cast<sim::Duration>(static_cast<double>(drawn.runtime) * ratio);
    job.requested_walltime = std::clamp(walltime, drawn.runtime, params.max_walltime);
    if (params.heterogeneous_apps) {
      job.app = kAppMix[rng.uniform_int(0, 3)];
    }
    jobs.push_back(job);
  }

  std::sort(jobs.begin(), jobs.end(), [](const JobRequest& a, const JobRequest& b) {
    return a.submit_time < b.submit_time;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<std::int64_t>(i + 1);
  }
  return jobs;
}

std::vector<JobRequest> generate(Profile profile, std::uint64_t seed) {
  return generate(params_for(profile), seed);
}

}  // namespace ps::workload
