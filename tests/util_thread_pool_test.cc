#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace ps::util {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    // no wait_idle: destructor must still run all queued tasks
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ThreadCountDefaultsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
  SUCCEED();
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(64, 0.0);
    parallel_for(pool, out.size(), [&out](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

// --- exception propagation -------------------------------------------------

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, PoolStaysUsableAfterFailure) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first batch fails"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error was consumed by the wait; the next batch starts clean.
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, OtherTasksStillRunWhenOneThrows) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    if (i == 10) {
      pool.submit([] { throw std::logic_error("boom"); });
    } else {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  EXPECT_EQ(counter.load(), 49);
}

TEST(ParallelFor, PropagatesBodyExceptionAfterAllIndicesRan) {
  std::vector<std::atomic<int>> hits(64);
  auto body = [&hits](std::size_t i) {
    hits[i].fetch_add(1);
    if (i == 7) throw std::runtime_error("index 7");
  };
  ThreadPool pool(1);
  EXPECT_THROW(parallel_for(pool, hits.size(), body), std::runtime_error);
  // Even on a single-thread pool every index ran despite the throw.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- pool reuse across sweeps ----------------------------------------------

TEST(ParallelFor, PoolReusedAcrossBatchesMergesInOrder) {
  ThreadPool pool(4);
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::string> out(37);
    parallel_for(pool, out.size(), [&out, batch](std::size_t i) {
      out[i] = std::to_string(batch) + ":" + std::to_string(i);
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], std::to_string(batch) + ":" + std::to_string(i));
    }
  }
}

TEST(ParallelFor, OnPoolCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1001);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, MoreWorkersThanIterations) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace ps::util
