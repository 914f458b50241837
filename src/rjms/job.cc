#include "rjms/job.h"

#include <algorithm>
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

std::int32_t Job::required_nodes(std::int32_t cores_per_node) const {
  PS_CHECK_MSG(cores_per_node > 0, "cores_per_node must be positive");
  std::int64_t cores = std::max<std::int64_t>(request.requested_cores, 1);
  return static_cast<std::int32_t>((cores + cores_per_node - 1) / cores_per_node);
}

std::int64_t Job::allocated_cores(std::int32_t cores_per_node) const {
  return static_cast<std::int64_t>(required_nodes(cores_per_node)) * cores_per_node;
}

Job& JobTable::append(const workload::JobRequest& request) {
  PS_CHECK_MSG(position(request.id) == kNone, "duplicate job id");
  PS_CHECK_MSG(size_ < kNone, "job table full");
  if (2 * (static_cast<std::size_t>(size_) + 1) > index_.size()) grow_index();
  if ((size_ >> kChunkBits) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Job[]>(kChunkSize));
  }
  std::uint32_t pos = size_++;
  Job& job = at(pos);
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
  for (std::uint32_t pos = 0; pos < size_; ++pos) index_[probe(at(pos).request.id)] = pos;
}

}  // namespace ps::rjms
