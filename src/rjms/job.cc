#include "rjms/job.h"

#include <bit>

#include "util/check.h"

namespace ps::rjms {

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Killed: return "killed";
  }
  return "?";
}

Job& JobTable::append(const workload::JobRequest& request) {
  PS_CHECK_MSG(position(request.id) == kNone, "duplicate job id");
  PS_CHECK_MSG(jobs_.size() < kNone, "job table full");
  if (2 * (jobs_.size() + 1) > index_.size()) grow_index();
  auto pos = static_cast<std::uint32_t>(jobs_.size());
  Job& job = jobs_.emplace_back();
  job.request = request;
  index_[probe(request.id)] = pos;
  return job;
}

std::size_t JobTable::probe(JobId id) const noexcept {
  std::size_t mask = index_.size() - 1;
  for (std::size_t slot = home(id);; slot = (slot + 1) & mask) {
    std::uint32_t pos = index_[slot];
    if (pos == kNone || at(pos).request.id == id) return slot;
  }
}

std::uint32_t JobTable::position(JobId id) const noexcept {
  if (index_.empty()) return kNone;
  return index_[probe(id)];
}

void JobTable::grow_index() {
  std::size_t slots = index_.empty() ? 16 : 2 * index_.size();
  index_.assign(slots, kNone);
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  for (std::uint32_t pos = 0; pos < jobs_.size(); ++pos) {
    index_[probe(at(pos).request.id)] = pos;
  }
}

}  // namespace ps::rjms
