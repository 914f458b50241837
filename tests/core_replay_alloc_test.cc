// Allocation fence for a whole streamed replay: the curie_month generator
// streamed through run_scenario at N and at 2N jobs (same arrival rate,
// twice the span) under the same daily cap windows. Whatever the replay
// allocates once (the stack, the plans, the windows) cancels out of the
// difference, so the extra allocations per added job are what a job costs
// in steady state: its node list comes back from the controller's stash,
// a rejected class goes into a list that keeps its capacity, and the job
// table and the recorded series grow by 64 KB chunks. The generator's own
// work (drawing and sorting each hour of arrivals) is not the replay's, so
// it runs uncounted. The binary replaces the global operator new with a
// counting one, so it is kept apart from the other core tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/experiment.h"
#include "workload/job_source.h"
#include "workload/synthetic.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_paused{false};

void* counted_alloc(std::size_t size) {
  if (!g_paused.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
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

namespace ps::core {
namespace {

constexpr std::int32_t kDays = 6;
constexpr std::size_t kJobs = 10000;

/// Streams an inner source with the allocation count paused while it
/// draws, so only the replay's own allocations are counted.
class UncountedSource final : public workload::JobSource {
 public:
  explicit UncountedSource(std::unique_ptr<workload::JobSource> inner)
      : inner_(std::move(inner)) {}

  bool next_chunk(sim::Time until, std::vector<workload::JobRequest>& out) override {
    g_paused.store(true, std::memory_order_relaxed);
    bool more = inner_->next_chunk(until, out);
    g_paused.store(false, std::memory_order_relaxed);
    return more;
  }
  sim::Time last_submit_hint() override { return inner_->last_submit_hint(); }
  void rewind() override { inner_->rewind(); }

 private:
  std::unique_ptr<workload::JobSource> inner_;
};

struct ReplayCount {
  std::uint64_t allocs = 0;
  std::uint64_t submitted = 0;
  std::uint64_t started = 0;
};

/// Streams `days` days of the curie_month generator, kJobs per kDays days,
/// under daily 11:00-13:00 caps at half the machine's draw on the first
/// two days, and counts the allocations of the whole replay.
ReplayCount replay(std::int32_t days) {
  ScenarioConfig config;
  std::size_t jobs = kJobs * static_cast<std::size_t>(days) / kDays;
  config.job_source =
      std::make_shared<UncountedSource>(std::make_unique<workload::ChunkedSyntheticSource>(
          workload::curie_month_params(days, jobs), 7));
  config.submit_chunk = sim::hours(6);
  config.racks = 2;
  config.powercap.policy = Policy::Mix;
  config.cap_windows = make_daily_cap_windows(0, 2, sim::hours(11), sim::hours(13), 0.5);

  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  ScenarioResult result = run_scenario(config);
  ReplayCount run;
  run.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  run.submitted = result.stats.submitted;
  run.started = result.stats.started;
  return run;
}

TEST(ReplayAllocTest, AnAddedJobCostsNoAllocation) {
  ReplayCount base = replay(kDays);
  ReplayCount twice = replay(2 * kDays);
  // The generator drew about the asked-for count, and most jobs ran.
  ASSERT_GT(base.submitted, kJobs * 9 / 10);
  ASSERT_GT(twice.submitted, base.submitted + kJobs * 9 / 10);
  EXPECT_GT(twice.started, twice.submitted * 9 / 10);

  double added_jobs = static_cast<double>(twice.submitted - base.submitted);
  double extra_allocs =
      static_cast<double>(twice.allocs) - static_cast<double>(base.allocs);
  EXPECT_LT(extra_allocs / added_jobs, 0.05)
      << base.allocs << " allocations at " << base.submitted << " jobs, " << twice.allocs
      << " at " << twice.submitted;
}

}  // namespace
}  // namespace ps::core
