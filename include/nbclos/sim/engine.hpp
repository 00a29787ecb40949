/// \file engine.hpp
/// \brief Cycle-driven packet simulator over a Network.
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
/// The rules live in one kernel (kernel.hpp) that ShardedSim's shards
/// run too; PacketSim is the kernel over one arena indexed by global
/// ids.  Per cycle: faults -> arrivals (`arrive`, then `admit` per
/// target) -> transmissions (`transmit`) -> injection.  Active channels
/// sit in bitmap sets swept in ascending id (see DESIGN.md "PacketSim
/// performance model"), so per-cycle cost scales with the packets in
/// the system, and every oracle/RNG consultation happens in a full
/// scan's order: runs are bit-reproducible from seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/sim/config.hpp"
#include "nbclos/sim/kernel.hpp"
#include "nbclos/sim/oracle.hpp"
#include "nbclos/sim/traffic.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/stats.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos::sim {

struct SimResult {
  double offered_load = 0.0;          ///< config injection rate
  double accepted_throughput = 0.0;   ///< delivered flits/terminal/cycle
  double mean_latency = 0.0;          ///< cycles, measured packets only
  /// Latency quantiles from the streaming histogram; each is exact to
  /// within `latency_bucket_width` cycles (see QuantileHistogram).
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double p999_latency = 0.0;
  double latency_bucket_width = 1.0;  ///< quantile resolution, cycles
  std::uint64_t injected_packets = 0;
  std::uint64_t delivered_packets = 0;
  /// Packets lost to failed channels/switches over the whole run (zero on
  /// a pristine fabric): dropped at injection because the leaf uplink was
  /// dead, purged from queues when their channel died, or discarded when
  /// the oracle found no live route (fault::kNoRoute).
  std::uint64_t dropped_packets = 0;
  double mean_switch_queue_depth = 0.0;  ///< time-average over switch queues
  /// Fairness: per-SOURCE-terminal accepted throughput extremes over the
  /// measurement window (flits/cycle).  A big min/max gap means some
  /// flows starve — typical for static routings on funnel patterns.
  double min_flow_throughput = 0.0;
  double max_flow_throughput = 0.0;
  /// accepted < 95% of offered — the network is saturated at this load.
  [[nodiscard]] bool saturated() const {
    return accepted_throughput < 0.95 * offered_load;
  }
};

/// Per-channel link utilization over one simulation run: the fraction of
/// cycles each channel spent transmitting flits.  This is the telemetry
/// resource-centric analyses need (see PAPERS.md) and what the paper's
/// Lemma 1 artifacts compute internally but never exposed before.
struct LinkUtilization {
  std::vector<double> busy_fraction;  ///< per channel, [0, 1]
  double mean = 0.0;                  ///< over all channels
  double max = 0.0;
  std::uint32_t max_channel = 0;      ///< argmax channel id
};

class PacketSim : private detail::PacketKernel<PacketSim> {
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
            std::vector<fault::FaultEvent> fault_events = {});

  /// Run warmup + measurement; returns aggregate results.
  [[nodiscard]] SimResult run();

  /// Flits transmitted per channel over the whole run (busy cycles, since
  /// a channel moves one flit per cycle).  Valid after run().
  [[nodiscard]] const std::vector<std::uint64_t>& link_busy_flits() const {
    return link_busy_flits_;
  }

  /// Per-link utilization report over the whole run.  Valid after run().
  /// Recorder-backed: the per-link sums, the `sim.link.busy_flits`
  /// flight-recorder series and the `sim.link.busy_flit_cycles` registry
  /// counter (added at the end of the run) are fed by the same
  /// transmissions.
  [[nodiscard]] LinkUtilization link_utilization() const;

  /// The per-epoch time-series recorder (inactive unless
  /// SimConfig::record_timeseries).  Series are stable after run().
  [[nodiscard]] const obs::FlightRecorder& recorder() const {
    return recorder_;
  }

 private:
  friend PacketKernel;

  // The kernel's hooks: the one arena is indexed by global ids, and
  // routes come from the oracle over the hoisted SimView.
  static std::uint32_t channel(std::uint32_t c) { return c; }
  static std::uint32_t global(std::uint32_t c) { return c; }
  std::uint32_t route(std::uint32_t at, const Packet& packet) {
    ++oracle_calls_;
    return oracle_->next_channel(view_, at, packet);
  }
  void busy(std::uint32_t c, std::uint32_t flits) {
    link_busy_flits_[c] += flits;
  }
  void measured_latency(std::uint64_t latency) {
    latency_.add(static_cast<double>(latency));
  }

  void step_arrivals();
  void step_injection();
  /// Aggregate engine telemetry into obs::metrics() + sampled per-phase
  /// timings; called once at the end of run() when obs is enabled.
  void flush_obs(double wall_seconds);

  RoutingOracle* oracle_;
  std::vector<fault::FaultEvent> fault_events_;  ///< sorted by cycle
  /// Per target queue, the channels whose head packet wants it this
  /// cycle (ascending: the arrival sweep is ascending).
  std::vector<std::vector<std::uint32_t>> arrival_candidates_;
  std::vector<std::uint32_t> arrival_targets_;

  Xoshiro256 rng_;  ///< legacy injection stream
  std::uint64_t now_ = 0;
  bool measuring_ = false;
  SimView view_;  ///< stable oracle view, hoisted out of steps
  RunningStats latency_;  ///< the legacy mode's Welford latency mean
  RunningStats queue_depth_samples_;

  // --- observability (none of it feeds back into simulation state, so
  // --- results are bit-identical with obs compiled out or disabled) ----
  std::vector<std::uint64_t> link_busy_flits_;  ///< per channel, whole run
  obs::FlightRecorder recorder_;
  detail::PacketSeries series_;
  std::uint64_t oracle_calls_ = 0;
  std::uint64_t active_flying_sum_ = 0;    ///< per-cycle |flying| summed
  std::uint64_t active_sendable_sum_ = 0;  ///< per-cycle |sendable| summed
  /// Sampled per-phase wall time (arrivals / transmissions / injection),
  /// measured every 64th cycle so the clock reads stay off the hot path.
  std::uint64_t phase_ns_[3] = {0, 0, 0};
  std::uint64_t phase_samples_ = 0;
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
