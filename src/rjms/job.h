// Job lifecycle record kept by the controller, and the job table that
// holds every job a controller was ever given.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/frequency.h"
#include "cluster/topology.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "util/chunked_store.h"
#include "workload/job_request.h"

namespace ps::rjms {

using JobId = std::int64_t;

enum class JobState : std::uint8_t {
  Pending,    ///< queued, not yet allocated
  Running,    ///< executing on its allocation
  Completed,  ///< finished normally
  Killed,     ///< terminated (walltime limit or powercap extreme action)
};

const char* to_string(JobState state) noexcept;

struct Job {
  workload::JobRequest request;
  JobState state = JobState::Pending;

  /// Whole-node width, ceil(max(requested_cores, 1) / cores_per_node): set
  /// once at submit, for every job.
  std::int32_t width = 0;

  /// The allocation, `width` nodes; defined only while the job is Running.
  /// When the job ends the controller takes the list back to reuse it for
  /// a later start, so a terminal job's list is empty.
  std::vector<cluster::NodeId> nodes;
  cluster::FreqIndex freq = 0;  ///< DVFS level the job was started at

  sim::Time start_time = -1;
  sim::Time end_time = -1;

  /// Runtime/walltime after DVFS degradation scaling (valid once Running).
  sim::Duration scaled_runtime = 0;
  sim::Duration scaled_walltime = 0;

  /// The live end event (kInvalidEventId when none): it fires at
  /// start_time + min(scaled_runtime, scaled_walltime). A kill or rescale
  /// resets or replaces it, and an end event with another id does nothing
  /// when it fires.
  sim::EventId end_event = sim::kInvalidEventId;

  JobId id() const noexcept { return request.id; }

  bool terminal() const noexcept {
    return state == JobState::Completed || state == JobState::Killed;
  }
};
static_assert(sizeof(Job) <= 160, "a job table slot stays within 160 bytes");

/// Every job a controller was given, in submission order. Jobs live in a
/// util::ChunkedStore, whose elements never move, so a Job& stays valid
/// for the table's lifetime: the pending queue and the running
/// set hold Job* across any number of later appends. An open-addressing
/// index (power-of-two size, load <= 1/2, linear probing) maps an id to its
/// position; its keys are the jobs' own request.id.
class JobTable {
 public:
  /// Appends a job for `request`. Throws CheckError on a duplicate id.
  Job& append(const workload::JobRequest& request);

  /// The job with `id`, or null.
  const Job* find(JobId id) const noexcept {
    std::uint32_t pos = position(id);
    return pos == kNone ? nullptr : &at(pos);
  }

  /// Calls fn(const Job&) for every job, in submission order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Job& job : jobs_) fn(job);
  }

 private:
  static constexpr std::uint32_t kNone = ~0u;

  const Job& at(std::uint32_t pos) const noexcept { return jobs_[pos]; }
  /// Fibonacci hashing: the top bits of id * 2^64/phi, which spread
  /// sequential, strided and sign-extended ids alike.
  std::size_t home(JobId id) const noexcept {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >>
                                    index_shift_);
  }
  /// The index slot holding `id`, or the empty slot where it would go.
  std::size_t probe(JobId id) const noexcept;
  /// The position of `id` in submission order, or kNone.
  std::uint32_t position(JobId id) const noexcept;
  /// Doubles the index and re-files every job.
  void grow_index();

  util::ChunkedStore<Job> jobs_;
  std::vector<std::uint32_t> index_;  ///< positions; kNone = empty slot
  unsigned index_shift_ = 0;          ///< 64 - log2(index_.size())
};

}  // namespace ps::rjms
