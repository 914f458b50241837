// Allocation fence for the recorder's series: with the Curie table (8
// levels, all inline in a Sample) a new sample costs no heap block of its
// own, and the series grows by chunks without moving what it holds. The
// binary replaces the global operator new with a counting one, so it is
// kept apart from metrics_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cluster/curie.h"
#include "metrics/timeseries.h"
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

namespace ps::metrics {
namespace {

constexpr std::int64_t kSamples = 10000;

TEST(RecorderAllocTest, SamplesCostNoHeapBlockEachAndNeverMove) {
  sim::Simulator sim;
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(1);
  rjms::Controller controller(sim, cl, {});
  Recorder recorder(controller);
  ASSERT_EQ(cl.frequencies().size(), FreqCounts::kInlineLevels);
  const Sample& first = recorder.samples().front();

  const cluster::FreqIndex top = cl.frequencies().max_index();
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::int64_t i = 1; i <= kSamples; ++i) {
    cl.set_state(0, i % 2 == 1 ? cluster::NodeState::Busy : cluster::NodeState::Idle,
                 top);
    recorder.sample(sim::seconds(i));
  }
  std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  ASSERT_EQ(recorder.samples().size(), static_cast<std::size_t>(kSamples + 1));
  EXPECT_LT(allocs, static_cast<std::uint64_t>(kSamples / 4));
  EXPECT_EQ(first.t, 0);
  EXPECT_EQ(recorder.samples().back().busy_by_freq[top], 0);
  EXPECT_EQ(recorder.samples()[kSamples - 1].busy_by_freq[top], 1);
}

}  // namespace
}  // namespace ps::metrics
