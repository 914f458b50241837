// Fixed-size thread pool with a parallel_for helper.
//
// Individual simulations are single-threaded and deterministic; sweeps
// (Fig 8 runs 27 independent simulations) fan out across the pool. Results
// are written into pre-sized slots so output order never depends on thread
// scheduling.
//
// Error handling: tasks may throw. The first exception raised by any task
// is captured and rethrown from the next wait_idle() (remaining tasks still
// run to completion, so the pool is reusable after a failure). The
// destructor drains the queue and swallows any captured error — join paths
// must not throw.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ps::util {

class ThreadPool {
 public:
  /// Creates `threads` workers (0 = hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks may throw: the first exception is captured and
  /// rethrown from the next wait_idle().
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any of them raised (clearing it, so the pool stays
  /// usable for the next batch).
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;  ///< guarded by mutex_
};

/// Runs body(i) for i in [0, count) on `pool` and returns when all
/// iterations are done. `body` must be thread-safe across distinct i.
/// The caller must not itself be running inside a task of `pool`
/// (wait_idle would count the caller and deadlock), and concurrent
/// batches on one pool are unsupported: wait_idle waits for — and may
/// steal the pool-level exception of — every in-flight task.
/// Dispatch is counter-stealing: one pool task per worker, each pulling the
/// next unclaimed index from a shared atomic counter, so uneven iteration
/// costs (a 24 h scenario next to a 1 h one) balance dynamically instead of
/// serializing behind a static partition. Every index runs even when some
/// throw; the first exception is rethrown once all iterations finished.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace ps::util
