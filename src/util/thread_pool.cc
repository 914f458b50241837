#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace ps::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
  // A captured error nobody waited for dies with the pool: destructors must
  // not throw.
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      --in_flight_;
      if (in_flight_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Counter-stealing dispatch: each pool task loops pulling the next
  // unclaimed index, so slow iterations never pin fast ones behind a static
  // partition and per-iteration submit overhead is amortized away.
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::exception_ptr first_error;
  };
  auto shared = std::make_shared<Shared>();
  std::size_t workers = std::min(count, std::max<std::size_t>(1, pool.thread_count()));
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([shared, count, &body] {
      for (std::size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
           i < count; i = shared->next.fetch_add(1, std::memory_order_relaxed)) {
        // Catch per iteration so a failing index never skips the rest (a
        // worker that aborted its loop would leave indices unrun on a
        // single-thread pool).
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(shared->mutex);
          if (!shared->first_error) shared->first_error = std::current_exception();
        }
      }
    });
  }
  pool.wait_idle();
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

}  // namespace ps::util
