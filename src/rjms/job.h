// Job lifecycle record kept by the controller.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/frequency.h"
#include "cluster/topology.h"
#include "sim/time.h"
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

  /// Allocation (valid once Running).
  std::vector<cluster::NodeId> nodes;
  cluster::FreqIndex freq = 0;  ///< DVFS level the job was started at

  sim::Time start_time = -1;
  sim::Time end_time = -1;

  /// Runtime/walltime after DVFS degradation scaling (valid once Running).
  sim::Duration scaled_runtime = 0;
  sim::Duration scaled_walltime = 0;

  JobId id() const noexcept { return request.id; }

  /// Whole-node allocation: nodes = ceil(requested_cores / cores_per_node).
  std::int32_t required_nodes(std::int32_t cores_per_node) const;

  /// Cores the allocation occupies (nodes * cores_per_node) — what the
  /// utilization plots count.
  std::int64_t allocated_cores(std::int32_t cores_per_node) const;

  bool terminal() const noexcept {
    return state == JobState::Completed || state == JobState::Killed;
  }
};

}  // namespace ps::rjms
