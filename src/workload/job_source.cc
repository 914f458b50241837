#include "workload/job_source.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/synthetic_mixture.h"

namespace ps::workload {

namespace {

bool by_submit(const JobRequest& a, const JobRequest& b) {
  return a.submit_time < b.submit_time;
}

/// splitmix64 of (seed, window index): each generation window gets an
/// independent deterministic stream, which is what makes the chunked
/// synthetic source invariant to how the consumer slices its chunks.
std::uint64_t window_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<JobRequest> materialize(JobSource& source) {
  std::vector<JobRequest> jobs;
  source.rewind();
  source.next_chunk(sim::kTimeMax, jobs);
  return jobs;
}

// --- VectorJobSource ---------------------------------------------------------

VectorJobSource::VectorJobSource(std::vector<JobRequest> jobs)
    : jobs_(std::move(jobs)) {
  // Stable: equal submit times keep vector order — the order the
  // materialized replay always submitted them in.
  std::stable_sort(jobs_.begin(), jobs_.end(), by_submit);
}

bool VectorJobSource::next_chunk(sim::Time until, std::vector<JobRequest>& out) {
  while (cursor_ < jobs_.size() && jobs_[cursor_].submit_time <= until) {
    out.push_back(jobs_[cursor_]);
    ++cursor_;
  }
  return cursor_ < jobs_.size();
}

sim::Time VectorJobSource::last_submit_hint() {
  // Empty vector: 0, matching the materialized path's max over no jobs.
  return jobs_.empty() ? 0 : jobs_.back().submit_time;
}

// --- SwfStreamSource ---------------------------------------------------------

SwfStreamSource::SwfStreamSource(std::string path, Options options)
    : path_(std::move(path)), options_(options) {}

void SwfStreamSource::scan() {
  if (scanned_) return;
  std::ifstream in = swf::open(path_);
  swf::RecordReader records(in, options_.parse);
  swf::Record record;
  sim::Time lo = sim::kTimeMax;
  sim::Time hi = -1;
  while (records.next(record)) {
    lo = std::min(lo, record.job.submit_time);
    hi = std::max(hi, record.job.submit_time);
  }
  // No job survives the filters: 0, like rebase_submit_times on no jobs.
  base_ = hi < 0 ? 0 : lo;
  hint_ = hi < 0 ? 0 : hi - lo;
  scanned_ = true;
}

void SwfStreamSource::advance() {
  has_pending_ = records_->next(pending_);
  if (!has_pending_) return;
  pending_.job.submit_time -= base_;
  if (pending_.job.submit_time <= floor_) {
    throw std::runtime_error(strings::format(
        "swf stream: submit time regressed below an already-replayed chunk "
        "boundary at line %zu — streaming needs a (near-)submit-sorted "
        "trace; materialize it instead",
        records_->line_number()));
  }
}

bool SwfStreamSource::next_chunk(sim::Time until, std::vector<JobRequest>& out) {
  PS_CHECK_MSG(until >= floor_, "JobSource::next_chunk: until must be nondecreasing");
  scan();
  if (!records_) {
    in_ = swf::open(path_);
    records_.emplace(in_, options_.parse);
    advance();
  }
  while (has_pending_ && pending_.job.submit_time <= until) {
    out.push_back(std::move(pending_.job));
    advance();
  }
  floor_ = until;
  return has_pending_;
}

sim::Time SwfStreamSource::last_submit_hint() {
  scan();
  return hint_;
}

void SwfStreamSource::rewind() {
  // The scan survives: same file, same offset and hint.
  records_.reset();
  in_ = std::ifstream();
  has_pending_ = false;
  floor_ = -1;
}

// --- ChunkedSyntheticSource --------------------------------------------------

ChunkedSyntheticSource::ChunkedSyntheticSource(GeneratorParams params,
                                               std::uint64_t seed,
                                               sim::Duration gen_window)
    : params_(std::move(params)),
      seed_(seed),
      gen_window_(gen_window),
      classes_({params_.w_tiny, params_.w_medium, params_.w_large, params_.w_huge}),
      users_(mixture::zipf_user_weights(params_.user_count)) {
  PS_CHECK_MSG(params_.job_count > 0, "chunked generator: job_count must be > 0");
  PS_CHECK_MSG(params_.span > 0, "chunked generator: span must be > 0");
  PS_CHECK_MSG(gen_window_ > 0, "chunked generator: gen_window must be > 0");
  PS_CHECK_MSG(params_.backlog_fraction >= 0.0 && params_.backlog_fraction <= 1.0,
               "chunked generator: backlog_fraction in [0,1]");
  backlog_ = static_cast<std::int64_t>(params_.backlog_fraction *
                                       static_cast<double>(params_.job_count));
  arrivals_ = static_cast<std::int64_t>(params_.job_count) - backlog_;
  mu_ = std::log(params_.overestimate_median);
}

std::int64_t ChunkedSyntheticSource::window_count() const {
  return (params_.span + gen_window_ - 1) / gen_window_;
}

std::int64_t ChunkedSyntheticSource::arrivals_before(std::int64_t k) const {
  sim::Time t = std::min<sim::Time>(k * gen_window_, params_.span);
  return arrivals_ * t / params_.span;  // floor of the exact proportion
}

void ChunkedSyntheticSource::generate_window(std::int64_t k,
                                             std::vector<JobRequest>& out) const {
  const sim::Time w0 = k * gen_window_;
  const sim::Time w1 = std::min<sim::Time>((k + 1) * gen_window_, params_.span);
  const std::int64_t backlog_here = k == 0 ? backlog_ : 0;
  const std::int64_t count = backlog_here + arrivals_before(k + 1) - arrivals_before(k);
  const std::int64_t id_base = (k == 0 ? 0 : backlog_) + arrivals_before(k);
  util::Rng rng(window_seed(seed_, static_cast<std::uint64_t>(k)));
  const std::size_t start = out.size();
  for (std::int64_t i = 0; i < count; ++i) {
    JobRequest job;
    job.submit_time = i < backlog_here
                          ? 0
                          : static_cast<sim::Time>(rng.uniform(
                                static_cast<double>(w0), static_cast<double>(w1)));
    auto klass = static_cast<mixture::SizeClass>(rng.weighted_index(classes_));
    mixture::Drawn drawn = mixture::draw_job(rng, klass);
    job.user = static_cast<std::int32_t>(rng.weighted_index(users_));
    job.requested_cores = drawn.cores;
    job.base_runtime = drawn.runtime;
    double ratio = rng.lognormal(mu_, params_.overestimate_sigma);
    auto walltime =
        static_cast<sim::Duration>(static_cast<double>(drawn.runtime) * ratio);
    job.requested_walltime = std::clamp(walltime, drawn.runtime, params_.max_walltime);
    if (params_.heterogeneous_apps) job.app = mixture::kAppMix[rng.uniform_int(0, 3)];
    out.push_back(std::move(job));
  }
  std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
                   by_submit);
  for (std::int64_t i = 0; i < count; ++i) {
    out[start + static_cast<std::size_t>(i)].id = id_base + i + 1;
  }
}

bool ChunkedSyntheticSource::next_chunk(sim::Time until, std::vector<JobRequest>& out) {
  // Jobs generated past an earlier `until` drain first (they are the
  // earliest remaining times).
  while (carry_cursor_ < carry_.size() && carry_[carry_cursor_].submit_time <= until) {
    out.push_back(std::move(carry_[carry_cursor_]));
    ++carry_cursor_;
  }
  if (carry_cursor_ == carry_.size()) {
    carry_.clear();
    carry_cursor_ = 0;
  }
  const std::int64_t windows = window_count();
  std::vector<JobRequest> window;
  while (next_window_ < windows && next_window_ * gen_window_ <= until) {
    window.clear();
    generate_window(next_window_, window);
    ++next_window_;
    for (JobRequest& job : window) {
      if (job.submit_time <= until) {
        out.push_back(std::move(job));
      } else {
        carry_.push_back(std::move(job));
      }
    }
  }
  return next_window_ < windows || carry_cursor_ < carry_.size();
}

void ChunkedSyntheticSource::rewind() {
  next_window_ = 0;
  carry_.clear();
  carry_cursor_ = 0;
}

}  // namespace ps::workload
