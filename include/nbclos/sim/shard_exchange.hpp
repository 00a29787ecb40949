/// \file shard_exchange.hpp
/// \brief The shared shard-exchange layer: deterministic level-sliced
///        vertex partitioning (ShardPlan), SPSC epoch mailboxes
///        (MailboxGrid), the yielding epoch barrier + failure latch
///        (ShardSync), and libnuma-free NUMA node detection.
///
/// Cross-shard messages travel in single-producer single-consumer
/// mailboxes indexed [src * S + dst]: box (src, dst) is written only by
/// shard `src` and drained (read + cleared) only by shard `dst`, in
/// epoch windows the ShardSync barriers keep disjoint.  The two engines
/// cut differently:
///
///   * `sim::ShardedSim` runs each cycle in phases A, B, C separated by
///     two barriers, with two message classes: admission proposals
///     downstream, written in A(n) and drained in B(n), and acks
///     upstream, written in B(n) and drained in C(n).  Barrier 2 of
///     cycle n orders the drain of a proposal box before its next write
///     in A(n + 1), and barrier 1 of n + 1 orders the drain of an ack
///     box before its next write in B(n + 1);
///   * `flow::ShardedFlowSim` has one barrier per cycle and one message
///     class (`flow::detail::Mail`: flits, credit returns, on/off bits,
///     injected packets), with one grid per cycle parity.  A box written
///     in cycle n is drained in n + 1, after the barrier of n, and
///     written again in n + 2, after the reader's barrier of n + 1.
///
/// Only hops whose ends sit on different shards exchange messages:
/// ShardedFlowSim runs every hop through its kernel's one `transmit`
/// and mails only the effects on the far side of the cut, and
/// ShardedSim hands a local proposal straight to its own admit phase.
///
/// NUMA awareness degrades gracefully: `NumaTopology` parses
/// /sys/devices/system/node (no libnuma dependency), and engines
/// allocate their per-shard arenas inside the worker threads (first
/// touch), so each arena's pages land on the node its worker runs on.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "nbclos/topology/network.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::sim {

/// Deterministic level-sliced vertex partition.  Shard s owns the s-th
/// slice of every level (`Vertex::level`): each level's vertices, in id
/// order, are cut at equal shares of the level's out-channel count (a
/// proxy for queue + in-flight state, which is what each shard arena
/// actually holds, and for per-cycle work).  Every level — terminals,
/// edge switches, each spine tier — is therefore split S ways, so no
/// shard holds all of one tier's work.  Shard s owns every channel whose
/// source vertex it owns.  Library builders number terminals [0, T) at
/// level 0, so each shard owns one contiguous terminal range and
/// injection is always shard-local.
struct ShardPlan {
  std::uint32_t shard_count = 1;
  std::vector<std::uint8_t> vertex_owner;  ///< per vertex: owning shard
  /// shard_count + 1 boundaries: shard s injects at terminals
  /// [terminal_begin[s], terminal_begin[s + 1]).
  std::vector<std::uint32_t> terminal_begin;
  std::vector<std::uint8_t> channel_owner;  ///< per channel: owning shard
  /// Per channel: index into the owner's local per-channel arrays (local
  /// ids ascend with global channel id within each shard, so per-shard
  /// ascending sweeps visit channels in global order).
  std::vector<std::uint32_t> channel_local;
  std::vector<std::vector<std::uint32_t>> shard_channels;  ///< global ids, asc

  /// Build the plan for `net` (requested shard count is clamped to
  /// [1, min(vertex_count, 64)]).  Pure function of (net, shards).
  /// Requires the terminals to sit on one level in ascending id order.
  [[nodiscard]] static ShardPlan build(const Network& net,
                                       std::uint32_t shards);

  [[nodiscard]] std::uint32_t shard_of_vertex(std::uint32_t v) const {
    return vertex_owner[v];
  }
};

/// SPSC epoch mailboxes for one message class: box(src, dst) is written
/// only by shard src and drained only by shard dst (see the file comment
/// for how each engine keeps the two apart).
/// Each box header sits on its own cache line: boxes (a, b) and (b, a)
/// are written and drained by two shards in the same phase.
template <typename T>
class MailboxGrid {
 public:
  static constexpr std::size_t kLineBytes = 64;

  MailboxGrid() = default;
  explicit MailboxGrid(std::uint32_t shards)
      : shards_(shards), boxes_(std::size_t{shards} * shards) {}

  [[nodiscard]] std::vector<T>& box(std::uint32_t src, std::uint32_t dst) {
    NBCLOS_DEBUG_CHECK(src < shards_ && dst < shards_,
                       "mailbox shard index out of range");
    return boxes_[std::size_t{src} * shards_ + dst].items;
  }

  /// Drain every box addressed to `dst` in ascending src order, calling
  /// `fn(src, box)` for each non-empty box and clearing it afterwards.
  /// Only shard `dst` may call this (SPSC contract).
  template <typename Fn>
  void drain_to(std::uint32_t dst, Fn&& fn) {
    for (std::uint32_t src = 0; src < shards_; ++src) {
      auto& b = boxes_[std::size_t{src} * shards_ + dst].items;
      if (b.empty()) continue;
      fn(src, b);
      b.clear();
    }
  }

  [[nodiscard]] std::uint32_t shard_count() const noexcept { return shards_; }

 private:
  struct alignas(kLineBytes) Box {
    std::vector<T> items;
  };
  std::uint32_t shards_ = 0;
  std::vector<Box> boxes_;
};

/// Merge the ascending `run` (one sender's ascending sweep) into the
/// ascending `merged` through `scratch`, which keeps its capacity: how a
/// shard orders the mailbox runs it drains without sorting.
template <class T, class Less>
void merge_run(std::vector<T>& merged, const std::vector<T>& run,
               std::vector<T>& scratch, Less less) {
  NBCLOS_DEBUG_CHECK(std::is_sorted(run.begin(), run.end(), less),
                     "a mailbox run must arrive in order");
  scratch.clear();
  std::merge(merged.begin(), merged.end(), run.begin(), run.end(),
             std::back_inserter(scratch), less);
  merged.swap(scratch);
}

/// Epoch barrier + failure latch shared by all shard workers of one run.
///
/// The barrier is a generation counter: the last arrival of a phase
/// resets the arrival count and bumps the generation with release
/// ordering; every other worker polls the generation, yielding its core
/// between polls a fixed number of times, and then parks on
/// `std::atomic::wait`.  Phases are short (tens of microseconds), so
/// the polls usually see the bump without a futex sleep and wake-up;
/// yielding rather than spinning on `pause` keeps oversubscribed runs
/// (more shards than cores) from burning the cores the laggards need.
///
/// A worker that throws records the exception, raises the latch, and
/// drops from the barrier so the remaining shards never deadlock; they
/// drain out at their next cycle boundary (`poisoned()` ->
/// `arrive_and_drop()`) and the calling thread rethrows after joining.
class ShardSync {
 public:
  explicit ShardSync(std::uint32_t participants);

  /// Arrive at the current phase and block until every participant has
  /// arrived (or dropped).  All writes made before arriving happen-before
  /// every read made after any participant returns.
  void arrive_and_wait();

  /// Arrive at the current phase without waiting and leave the barrier:
  /// later phases expect one participant fewer.
  void arrive_and_drop();

  /// Record the in-flight exception (first wins), raise the latch, and
  /// drop this worker from the barrier.  Call from a worker's catch-all.
  void record_failure();

  /// True when some worker failed; surviving workers should
  /// `arrive_and_drop()` and return.
  [[nodiscard]] bool poisoned() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

  /// Barrier phases completed so far (modulo 2^32).
  [[nodiscard]] std::uint32_t phases_completed() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// Rethrow the recorded exception, if any.  Call after joining.
  void rethrow_if_failed() const {
    if (eptr_) std::rethrow_exception(eptr_);
  }

  /// Run `work(s)` for every shard s in [0, shards): shard 0 on the
  /// calling thread, each other shard on a thread of its own.  A worker
  /// that throws records the failure; the first one is rethrown after
  /// the join.
  template <class Work>
  void run(std::uint32_t shards, Work&& work) {
    const auto guarded = [&](std::uint32_t s) {
      try {
        work(s);
      } catch (...) {
        record_failure();
      }
    };
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (std::uint32_t s = 1; s < shards; ++s) workers.emplace_back(guarded, s);
    guarded(0);
    for (auto& worker : workers) worker.join();
    rethrow_if_failed();
  }

 private:
  /// Bump the generation and wake the parked waiters; the caller holds
  /// the phase's last arrival, so nobody else touches `state_` now.
  void complete_phase(std::uint32_t participants);

  /// High 32 bits: participants; low 32 bits: arrivals this phase.  One
  /// word, so an arrival and a drop can never both miss the last slot.
  std::atomic<std::uint64_t> state_;
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<bool> failed_{false};
  std::mutex mutex_;
  std::exception_ptr eptr_;
};

/// CPU -> NUMA node map parsed from /sys/devices/system/node (one node
/// covering every CPU when the hierarchy is absent, e.g. non-Linux or
/// single-socket containers).  No libnuma dependency.
struct NumaTopology {
  std::uint32_t cpu_count = 1;
  std::uint32_t node_count = 1;
  std::vector<std::uint32_t> node_of_cpu;  ///< indexed by cpu id

  [[nodiscard]] static NumaTopology detect();
};

/// NUMA node the calling thread is currently executing on (0 when
/// undeterminable) — recorded as the per-shard arena-residency gauge:
/// with first-touch allocation, the node a worker ran on when it built
/// its arena is the node the arena pages live on.
[[nodiscard]] std::uint32_t current_numa_node(const NumaTopology& topo);

}  // namespace nbclos::sim
