/// \file test_shard_sync.cpp
/// \brief ShardSync, the sharded engines' epoch barrier and failure
///        latch: every epoch publishes every worker's writes, a failing
///        worker releases the survivors, and oversubscribed runs finish.
///        MailboxGrid keeps every box header on its own cache line.
#include "nbclos/sim/shard_exchange.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace nbclos::sim {
namespace {

/// Run `threads` workers through `epochs` epochs: each writes its slot,
/// crosses the barrier, and checks every slot.  Slots are double-buffered
/// by epoch parity: a worker's next write to the same parity needs the
/// next barrier, which waits for every worker's check.  The slots are
/// plain memory, so TSan checks the barrier's happens-before edges too.
/// Returns the number of stale slots seen.
std::uint64_t stale_slots_over_epochs(std::uint32_t threads,
                                      std::uint32_t epochs) {
  ShardSync sync(threads);
  std::vector<std::vector<std::uint32_t>> slots(
      2, std::vector<std::uint32_t>(threads, UINT32_MAX));
  std::vector<std::uint64_t> stale(threads, 0);
  const auto worker = [&](std::uint32_t t) {
    for (std::uint32_t e = 0; e < epochs; ++e) {
      slots[e & 1][t] = e;
      sync.arrive_and_wait();
      for (std::uint32_t u = 0; u < threads; ++u) {
        if (slots[e & 1][u] != e) ++stale[t];
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& th : pool) th.join();
  std::uint64_t total = 0;
  for (const auto s : stale) total += s;
  return total;
}

TEST(ShardSync, EveryEpochPublishesEverySlot) {
  for (const std::uint32_t threads : {1U, 2U, 3U, 8U}) {
    EXPECT_EQ(stale_slots_over_epochs(threads, 10'000), 0U)
        << "threads=" << threads;
  }
}

TEST(ShardSync, AFailingWorkerReleasesTheSurvivors) {
  // The engines' loop shape: check the latch at every cycle boundary,
  // then two barriers per cycle.  Worker 2 throws at epoch 500; the
  // others must drain out instead of waiting for it forever.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kEpochs = 10'000;
  constexpr std::uint32_t kFailAt = 500;
  ShardSync sync(kThreads);
  std::vector<std::uint32_t> stopped_at(kThreads, kEpochs);
  const auto worker = [&](std::uint32_t t) {
    try {
      for (std::uint32_t e = 0; e < kEpochs; ++e) {
        if (sync.poisoned()) {
          stopped_at[t] = e;
          sync.arrive_and_drop();
          return;
        }
        if (t == 2 && e == kFailAt) {
          stopped_at[t] = e;
          throw std::runtime_error("worker failed");
        }
        sync.arrive_and_wait();
        sync.arrive_and_wait();
      }
    } catch (...) {
      sync.record_failure();
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t t = 1; t < kThreads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& th : pool) th.join();
  EXPECT_TRUE(sync.poisoned());
  EXPECT_THROW(sync.rethrow_if_failed(), std::runtime_error);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    // A survivor can be at most one cycle past the failure when it
    // sees the latch.
    EXPECT_GE(stopped_at[t], kFailAt) << "t=" << t;
    EXPECT_LE(stopped_at[t], kFailAt + 1) << "t=" << t;
  }
}

TEST(ShardSync, OversubscribedWorkersFinish) {
  const std::uint32_t threads =
      2 * std::max(1U, std::thread::hardware_concurrency());
  EXPECT_EQ(stale_slots_over_epochs(threads, 1'000), 0U);
}

/// Two shards push into boxes (0, 1) and (1, 0) in the same phase, so no
/// two box headers may share a cache line.
TEST(MailboxGrid, NoTwoBoxesShareACacheLine) {
  for (const std::uint32_t shards : {2u, 3u}) {
    MailboxGrid<std::uint32_t> grid(shards);
    std::set<std::uintptr_t> lines;
    for (std::uint32_t src = 0; src < shards; ++src) {
      for (std::uint32_t dst = 0; dst < shards; ++dst) {
        const auto first =
            reinterpret_cast<std::uintptr_t>(&grid.box(src, dst));
        const auto last = first + sizeof(std::vector<std::uint32_t>) - 1;
        EXPECT_EQ(first / 64, last / 64) << "box straddles two lines";
        EXPECT_TRUE(lines.insert(first / 64).second)
            << "box (" << src << ", " << dst << ") shares a line";
      }
    }
  }
}

}  // namespace
}  // namespace nbclos::sim
