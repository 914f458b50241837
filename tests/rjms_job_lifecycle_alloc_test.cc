// Allocation fence for one job's life in the controller: submit -> start ->
// finish. The binary replaces the global operator new with a counting one
// and runs 4,096 one-job cycles after a warm-up, so the per-job count is
// the steady state the controller's containers settle into. A job costs no
// allocation, with or without the online governor: its node list comes
// from the lists of ended jobs, the governor caches no accepted verdict,
// and the job table grows by one chunk per 256 jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cluster/curie.h"
#include "core/online.h"
#include "rjms/controller.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ps::rjms {
namespace {

constexpr std::int64_t kWarmupJobs = 512;
constexpr std::int64_t kMeasuredJobs = 4096;

class JobLifecycleAllocTest : public ::testing::Test {
 protected:
  JobLifecycleAllocTest()
      : cl_(cluster::curie::make_scaled_cluster(1)), controller_(sim_, cl_, {}) {}

  /// Runs jobs [first, first + count) one at a time, each to its end;
  /// returns the allocations they cost.
  std::uint64_t run_cycles(std::int64_t first, std::int64_t count) {
    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (std::int64_t id = first; id < first + count; ++id) {
      workload::JobRequest request;
      request.id = id;
      request.submit_time = sim_.now();
      request.requested_cores = 64;
      request.base_runtime = sim::seconds(10);
      request.requested_walltime = sim::seconds(20);
      controller_.submit(request);
      while (sim_.step()) {}
    }
    return g_allocs.load(std::memory_order_relaxed) - before;
  }

  /// Allocations per job over kMeasuredJobs cycles after the warm-up.
  double allocs_per_job() {
    run_cycles(1, kWarmupJobs);
    std::uint64_t allocs = run_cycles(1 + kWarmupJobs, kMeasuredJobs);
    EXPECT_EQ(controller_.stats().completed,
              static_cast<std::uint64_t>(kWarmupJobs + kMeasuredJobs));
    return static_cast<double>(allocs) / static_cast<double>(kMeasuredJobs);
  }

  sim::Simulator sim_;
  cluster::Cluster cl_;
  Controller controller_;
};

TEST_F(JobLifecycleAllocTest, CapFreeJobCostsNoAllocation) {
  EXPECT_LE(allocs_per_job(), 0.05);
}

TEST_F(JobLifecycleAllocTest, GovernedJobCostsNoAllocation) {
  core::PowercapConfig config;
  config.policy = core::Policy::Mix;
  core::OnlineGovernor governor(controller_, config);
  controller_.set_governor(&governor);
  controller_.add_observer(&governor);
  // A cap every job fits under, so each admission prices a live window.
  controller_.add_powercap_reservation(0, sim::kTimeMax,
                                       0.9 * cl_.power_model().max_cluster_watts());
  EXPECT_LE(allocs_per_job(), 0.05);
}

}  // namespace
}  // namespace ps::rjms
