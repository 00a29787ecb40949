#include "nbclos/util/thread_pool.hpp"

#include <algorithm>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos {

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
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::scoped_lock lock(mutex_);
    NBCLOS_REQUIRE(!stopping_, "pool is shutting down");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  // One task per worker, each claiming the next unclaimed index, so a
  // worker that drew a cheap index moves on to the next one instead of
  // idling behind a fixed chunk.
  std::atomic<std::size_t> next{begin};
  const std::size_t tasks = std::min(end - begin, thread_count());
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([&next, &fn, end] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < end; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    });
  }
  wait_idle();
}

void ThreadPool::parallel_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t chunks = std::min(total, thread_count());
  const std::size_t base = total / chunks;
  const std::size_t extra = total % chunks;
  std::size_t cursor = begin;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t size = base + (c < extra ? 1 : 0);
    const std::size_t lo = cursor;
    const std::size_t hi = cursor + size;
    cursor = hi;
    submit([&fn, c, lo, hi] { fn(c, lo, hi); });
  }
  NBCLOS_ASSERT(cursor == end);
  wait_idle();
}

void ThreadPool::worker_loop() {
  // Occupancy gauge shared by every pool in the process: how many workers
  // are inside a task right now (max() gives the high-water mark).  Tasks
  // here are coarse — whole simulations or verification shards — so two
  // gauge updates per task cost nothing measurable.
  auto& occupancy = obs::metrics().gauge("threadpool.active");
  auto& executed = obs::metrics().counter("threadpool.tasks");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    occupancy.add(1);
    task();
    active_.fetch_sub(1, std::memory_order_relaxed);
    occupancy.add(-1);
    executed.add(1);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::scoped_lock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace nbclos
