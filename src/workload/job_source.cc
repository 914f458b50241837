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

void SwfStreamSource::ensure_open() {
  if (lines_) return;
  in_ = swf::open(path_);
  lines_.emplace(in_);
}

bool SwfStreamSource::read_next(JobRequest& out) {
  ensure_open();
  if (options_.parse.max_jobs > 0 && read_count_ >= options_.parse.max_jobs) {
    return false;
  }
  swf::Record record;
  std::string_view line;
  while (lines_->next(line)) {
    if (!swf::parse_line(line, lines_->line_number(), record)) {
      // Header comment: remember the writer's submit-time bound.
      std::size_t pos = line.find(swf::kMaxSubmitHeader);
      if (pos != std::string_view::npos) {
        auto value = strings::parse_i64(
            strings::trim(line.substr(pos + swf::kMaxSubmitHeader.size())));
        if (value) header_hint_s_ = *value;
      }
      continue;
    }
    if (!swf::keep_record(record, options_.parse)) continue;
    ++read_count_;
    out = std::move(record.job);
    return true;
  }
  return false;
}

bool SwfStreamSource::load_raw() {
  if (raw_pending_) return true;
  if (exhausted_) return false;
  JobRequest job;
  if (!read_next(job)) {
    exhausted_ = true;
    return false;
  }
  raw_pending_ = std::move(job);
  return true;
}

bool SwfStreamSource::fill_pending() {
  if (!load_raw()) return false;
  if (options_.rebase && !base_) base_ = raw_pending_->submit_time;
  if (pending_submit() <= floor_) {
    throw std::runtime_error(strings::format(
        "swf stream: submit time regressed below an already-replayed chunk "
        "boundary at line %zu — streaming needs a (near-)submit-sorted "
        "trace; materialize it instead",
        lines_->line_number()));
  }
  return true;
}

sim::Time SwfStreamSource::pending_submit() const {
  return raw_pending_->submit_time - (options_.rebase && base_ ? *base_ : 0);
}

bool SwfStreamSource::next_chunk(sim::Time until, std::vector<JobRequest>& out) {
  PS_CHECK_MSG(until >= floor_, "JobSource::next_chunk: until must be nondecreasing");
  while (fill_pending() && pending_submit() <= until) {
    JobRequest job = std::move(*raw_pending_);
    raw_pending_.reset();
    if (options_.rebase) job.submit_time -= *base_;
    out.push_back(std::move(job));
  }
  floor_ = until;
  return raw_pending_.has_value() || !exhausted_;
}

sim::Time SwfStreamSource::last_submit_hint() {
  if (hint_) return *hint_;
  // Reading up to (and holding) the first data job pulls the header
  // comments in without committing the rebase offset.
  if (!load_raw()) {
    // Exhausted (or empty) stream: the scan still answers exactly — and
    // never from `floor_`, which is consumer state (a kTimeMax drain would
    // poison horizon arithmetic downstream).
    prescan();
    return *hint_;
  }
  // The header describes the WHOLE file: it is only the materialized
  // path's bound when nothing truncates the job set. With max_jobs or a
  // filter active the last *kept* submission can differ, and a horizon
  // from the header would silently break streamed/materialized
  // bit-identity — the pre-scan below honors both.
  const bool header_usable = !options_.parse.max_jobs &&
                             !options_.parse.skip_zero_runtime &&
                             !options_.parse.skip_failed_status;
  if (header_hint_s_ && header_usable) {
    sim::Time base = options_.rebase
                         ? (base_ ? *base_ : raw_pending_->submit_time)
                         : 0;
    sim::Time rebased = sim::seconds(*header_hint_s_) - base;
    if (rebased >= raw_pending_->submit_time - base) {
      hint_ = rebased;
      return *hint_;
    }
    // A header bound below the first job is wrong: fall through to the scan.
  }
  // No usable header: one exact pass. Anchoring base_ at the scanned
  // minimum ALSO makes mildly unsorted traces rebase exactly like the
  // materialized path.
  prescan();
  return *hint_;
}

void SwfStreamSource::prescan() {
  // One O(1)-memory pass over the whole file: exact max (the hint) and min
  // (the rebase offset — matching swf::rebase_submit_times exactly, even
  // for a trace whose earliest submission is not its first line). Shares
  // swf::for_each_record with the batch parser, so hint and materialized
  // horizon are computed over the very same job set.
  std::ifstream scan = swf::open(path_);
  sim::Time lo = sim::kTimeMax;
  sim::Time hi = -1;
  swf::for_each_record(scan, options_.parse, [&](const swf::Record& record) {
    lo = std::min(lo, record.job.submit_time);
    hi = std::max(hi, record.job.submit_time);
  });
  if (hi < 0) {
    hint_ = 0;  // no jobs survive the filters
    return;
  }
  if (options_.rebase) {
    if (!base_) base_ = lo;
    hint_ = hi - *base_;
  } else {
    hint_ = hi;
  }
}

void SwfStreamSource::rewind() {
  lines_.reset();
  in_ = std::ifstream();
  read_count_ = 0;
  raw_pending_.reset();
  exhausted_ = false;
  floor_ = -1;
  // base_/header_hint_s_/hint_ survive: same file, same offsets.
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
