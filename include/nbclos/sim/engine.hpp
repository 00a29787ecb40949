/// \file engine.hpp
/// \brief Cycle-driven packet simulator over a Network, and the load
///        sweeps built on it.
///
/// Model (BookSim-style store-and-forward at packet granularity):
///   * every channel moves one flit per cycle, so a packet of S flits
///     occupies a channel for S cycles per hop;
///   * each channel has an output queue at its source vertex holding
///     packets waiting to transmit (capacity-limited at switches,
///     unbounded at terminal sources, which model the NIC's send queue);
///   * routing is decided when a packet arrives at a vertex, by a
///     RoutingOracle that may only inspect local queue occupancy —
///     distributed control, as the paper requires;
///   * when a packet finishes a hop but the chosen next queue is full it
///     stalls on the channel (credit-style backpressure).
/// PacketSim is ShardedSim (sharded.hpp) at one shard: one arena over
/// the whole fabric by global id, running the packet-move kernel
/// (kernel.hpp).  Active channels are swept in ascending id, so per-cycle
/// cost scales with the packets in the system and every oracle/RNG
/// consultation happens in a full scan's order: runs are
/// bit-reproducible from seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "nbclos/sim/sharded.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos::sim {

/// The one-shard packet engine over a stateful RoutingOracle: same
/// contract as ShardedSim, plus the legacy injection stream when
/// `config.counter_injection` is false.
class PacketSim : public ShardedSim {
 public:
  /// All references must outlive the simulator.
  ///
  /// \param degraded optional liveness mask (shared with a fault-aware
  ///        oracle).  When set, dead channels neither transmit nor accept
  ///        packets, and injection onto a dead leaf uplink is dropped.
  /// \param fault_events scheduled liveness transitions, applied to
  ///        `degraded` at the start of their cycle (cycle 0 = first warmup
  ///        cycle); packets queued or in flight on a channel that dies are
  ///        dropped.  Requires `degraded`.
  PacketSim(const Network& net, RoutingOracle& oracle,
            const TrafficPattern& traffic, SimConfig config,
            fault::DegradedView* degraded = nullptr,
            std::vector<fault::FaultEvent> fault_events = {})
      : ShardedSim(net, oracle, traffic, config, degraded,
                   std::move(fault_events)) {}
};

// --- sweep drivers ----------------------------------------------------

/// Builds a worker-private oracle for one simulation run of a parallel
/// sweep.  Stateful oracles cannot be shared across threads, so each run
/// constructs its own: `run_seed` is a decorrelated per-run seed (derived
/// from the sweep's base seed and the run index, identical at any thread
/// count) and `degraded` is the run-private liveness view (nullptr when
/// the sweep is pristine) for fault-aware oracles to capture.
using OracleFactory = std::function<std::unique_ptr<RoutingOracle>(
    std::uint64_t run_seed, fault::DegradedView* degraded)>;

/// Sweep injection rates and return one SimResult per rate.
///
/// Each run gets a private oracle and (when faulted) a private copy of
/// `*degraded`; the runs are evaluated over `pool` (nullptr = serial).
/// Per-run seeds and the merge order are fixed by the rate index, so the
/// results are field-for-field identical at any thread count, including
/// the serial path.  Each run keeps `base.seed` for the traffic/injection
/// stream; only the oracle seed varies.
[[nodiscard]] std::vector<SimResult> load_sweep(
    const Network& net, const OracleFactory& factory,
    const TrafficPattern& traffic, const SimConfig& base,
    const std::vector<double>& rates, ThreadPool* pool,
    const fault::DegradedView* degraded = nullptr,
    const std::vector<fault::FaultEvent>& fault_events = {});

/// Binary-search the saturation throughput: the highest offered load the
/// network still accepts (accepted >= 95% of offered).  The bracketing
/// phase probes a coarse load grid concurrently over `pool` (nullptr =
/// serial), then `iterations` steps bisect the bracketing interval
/// serially, each probe with its own oracle from `factory`.
/// Deterministic at any thread count.  `degraded` + `fault_events` pass
/// through to every probe as in load_sweep.
[[nodiscard]] double find_saturation_load(
    const Network& net, const OracleFactory& factory,
    const TrafficPattern& traffic, const SimConfig& base,
    std::uint32_t iterations, ThreadPool* pool,
    const fault::DegradedView* degraded = nullptr,
    const std::vector<fault::FaultEvent>& fault_events = {});

}  // namespace nbclos::sim
