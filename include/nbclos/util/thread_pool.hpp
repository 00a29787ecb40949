/// \file thread_pool.hpp
/// \brief A small work-stealing-free thread pool with a blocking
///        parallel_for, used to parallelize permutation sweeps and
///        simulator parameter scans.
///
/// The pool is deliberately simple: a shared queue guarded by a mutex is
/// plenty for our coarse-grained tasks (each task verifies a whole
/// permutation or simulates thousands of cycles).  Determinism note:
/// callers must give each parallel chunk its own split PRNG; results are
/// then independent of scheduling order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nbclos {

class ThreadPool {
 public:
  /// Spawn `threads` workers; 0 means hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueue a task.  Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed.
  void wait_idle();

  /// Run fn(i) for i in [begin, end) across the pool and block until
  /// done.  One task per worker claims indices one at a time from a
  /// shared counter, so indices of uneven cost (a sweep's heavy loads)
  /// balance across workers.  Which worker runs an index varies from run
  /// to run: fn must be thread-safe and write only per-index results.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Run fn(chunk_index, chunk_begin, chunk_end) once per chunk —
  /// convenient when each worker needs its own accumulator / PRNG.
  void parallel_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Workers currently executing a task (observability; racy by nature).
  [[nodiscard]] std::size_t active_count() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }
  /// Tasks completed over the pool's lifetime.
  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace nbclos
