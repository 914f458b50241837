#include "core/submission_pump.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps::core {

void SubmissionPump::refill() {
  ++refills_;
  buffer_.clear();  // capacity retained: steady-state refills allocate
  cursor_ = 0;      // nothing once the largest chunk has been seen
  while (buffer_.empty() && more_ && chunk_end_ < horizon_) {
    chunk_end_ = chunk_ <= 0 ? horizon_
                             : std::min<sim::Time>(
                                   horizon_, chunk_end_ < 0 ? chunk_ : chunk_end_ + chunk_);
    more_ = source_.next_chunk(chunk_end_, buffer_);
  }
  // Chunks may be locally unsorted; replay order is (submit time, source
  // order) — stable sort restores exactly the preloaded order.
  std::stable_sort(buffer_.begin(), buffer_.end(),
                   [](const workload::JobRequest& a, const workload::JobRequest& b) {
                     return a.submit_time < b.submit_time;
                   });
  if (width_scale_ < 1.0) {
    for (workload::JobRequest& job : buffer_) {
      job.requested_cores = std::max<std::int64_t>(
          1, std::llround(static_cast<double>(job.requested_cores) * width_scale_));
    }
  }
}

void SubmissionPump::schedule_next() {
  if (cursor_ >= buffer_.size()) return;  // refill found nothing: done
  simulator_.schedule_at_band(buffer_[cursor_].submit_time, sim::EventBand::kSubmit,
                              *this, /*kind=*/0);
}

void SubmissionPump::on_event(const sim::Event&) {
  const sim::Time now = simulator_.now();
  while (cursor_ < buffer_.size() && buffer_[cursor_].submit_time <= now) {
    controller_.submit(buffer_[cursor_]);
    ++submitted_;
    ++cursor_;
  }
  if (cursor_ >= buffer_.size()) refill();
  schedule_next();
}

void SubmissionPump::extend_horizon(sim::Time horizon) {
  PS_CHECK_MSG(horizon >= horizon_, "submission pump: horizon is monotonic");
  if (horizon == horizon_) return;
  horizon_ = horizon;
  // An idle pump (buffer drained, no wake pending) stopped because refill
  // hit the old horizon; pull again under the new one. A busy pump will
  // reach the new horizon through its own wake/refill cycle.
  if (cursor_ >= buffer_.size() && more_) {
    refill();
    schedule_next();
  }
}

}  // namespace ps::core
