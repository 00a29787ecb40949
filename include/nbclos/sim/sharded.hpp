/// \file sharded.hpp
/// \brief The packet-engine driver: one kernel arena per shard; under a
///        cut, cross-shard hops exchange admission proposals and acks
///        between epoch barriers.
///
/// `ShardedSim` is the only driver of the packet-move kernel
/// (kernel.hpp): run loop, phase timers, flight recorder, result fold
/// and obs flush are written once, in sharded.cpp.  `PacketSim`
/// (engine.hpp) is its one-shard form over a stateful RoutingOracle.
/// The shard count picks the kernel's id map when the engine is built:
///   * one shard — one arena over the whole fabric by global id, run on
///     the calling thread: no ShardPlan, mailboxes, barriers or NUMA
///     probe.  Routes come from a RoutingOracle over a SimView of the
///     arena's queues; the NextHop constructor wraps its router in a
///     NextHopOracle and copies `degraded`, while PacketSim applies
///     faults to the caller's view in place.  Only here may
///     `SimConfig::counter_injection` be false: the legacy sequential
///     stream with its Welford latency mean, which the goldens pin;
///   * S >= 2 shards — ShardPlan's level-sliced vertex cut gives each
///     channel to the shard of its SOURCE vertex, whose arena is built
///     on its worker thread (first touch).  Routes come from the pure
///     NextHop, faults apply to one DegradedView copy per shard, and
///     injection always uses the counter-based RNG (injection_rng.hpp).
///
/// Per cycle, with the phase timer each step is booked under:
///   arrivals — apply due faults, `arrive`, bucket each candidate per
///      target, `admit`.  Under a cut a candidate first travels as a
///      *proposal* to the owner of its next channel (a local list or an
///      SPSC mailbox); -- barrier 1 -- the owner merges the runs (each
///      ascends by proposing channel) before bucketing and answers each
///      proposer with an accept/reject *ack*; -- barrier 2 -- the acks
///      are applied (losers stall: backpressure);
///   transmissions — `transmit`;
///   injection — inject, record the switch-queue depth sum and the
///      recorder sample;
///   mailbox — (cut) the proposal merge and the ack drain.
/// With obs on, cycles 63, 127, ... are timed, one mean per shard, into
/// `sim.phase.{arrivals,transmissions,injection}_ns`; a cut adds
/// `sim.phase.mailbox_ns` and `sim.sharded.barrier_wait_ns`.  A proposal
/// box is drained between the barriers of the cycle that wrote it and an
/// ack box after barrier 2, so two barriers suffice for mailbox reuse.
///
/// Determinism contract: a deterministic cut, proposals merged in
/// proposing-channel order, round-robin state kept verbatim and exact
/// integer statistics (replayed in cycle order where a stream of doubles
/// is reported) make a counter-injection run over a pure NextHop
/// **bit-identical at any shard count**, and to PacketSim over the same
/// NextHop (via NextHopOracle).  tests/sim/test_sharded.cpp asserts every
/// SimResult field and the link-busy tallies with EXPECT_EQ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/sim/config.hpp"
#include "nbclos/sim/oracle.hpp"
#include "nbclos/sim/shard_exchange.hpp"
#include "nbclos/sim/traffic.hpp"
#include "nbclos/topology/network.hpp"

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

namespace detail {
class PacketDriver;  ///< one run's state over one id map (sharded.cpp)
}  // namespace detail

class ShardedSim {
 public:
  /// Engine-health telemetry for one run (valid after run()).
  struct Telemetry {
    std::uint64_t cross_shard_flits = 0;  ///< flits proposed via mailboxes
    std::uint64_t mailbox_peak = 0;       ///< max proposals in one box drain
    /// Packets still in the system when the run ended (in flight or
    /// queued) — with injected/delivered/dropped this closes the
    /// conservation identity injected == delivered + dropped + remaining.
    std::uint64_t remaining_packets = 0;
  };

  /// All references must outlive the simulator; the network is the
  /// router's.  The router must be pure (see next_hop.hpp), and
  /// `degraded` is taken by const reference: every shard keeps a private
  /// copy and applies the same `fault_events` schedule at the same
  /// cycles, so the copies never diverge.  Injection always uses the
  /// counter-based RNG.
  ShardedSim(const routing::NextHop& router, const TrafficPattern& traffic,
             SimConfig config, std::uint32_t shards,
             const fault::DegradedView* degraded = nullptr,
             std::vector<fault::FaultEvent> fault_events = {});
  ~ShardedSim();

  /// Run warmup + measurement across all shard workers; returns the
  /// merged aggregate results (bit-identical at any shard count).  May be
  /// called once.
  [[nodiscard]] SimResult run();

  /// Flits transmitted per channel over the whole run (busy cycles, since
  /// a channel moves one flit per cycle), by global channel id.  Valid
  /// after run().
  [[nodiscard]] const std::vector<std::uint64_t>& link_busy_flits() const;

  /// Per-link utilization report over the whole run.  Valid after run().
  /// Recorder-backed: the per-link sums, the `sim.link.busy_flits`
  /// flight-recorder series and the `sim.link.busy_flit_cycles` registry
  /// counter (added at the end of the run) are fed by the same
  /// transmissions.
  [[nodiscard]] LinkUtilization link_utilization() const;

  [[nodiscard]] std::uint32_t shard_count() const noexcept;
  [[nodiscard]] const Telemetry& telemetry() const noexcept;
  /// Resident bytes of the per-shard simulation arenas (queue pools,
  /// flight registers, per-channel state) — what the scale benches report
  /// as bytes/terminal.
  [[nodiscard]] std::size_t arena_bytes() const noexcept;

  /// The per-epoch time-series recorder (inactive unless
  /// SimConfig::record_timeseries).  Every shard samples the same global
  /// cycles into its own ring slot; merged() aggregates by exact integer
  /// sum/max, and the kInvariant series are bit-identical at any shard
  /// count.  Valid after run().
  [[nodiscard]] const obs::FlightRecorder& recorder() const;

 protected:
  /// One shard over a stateful `oracle` (PacketSim's constructor).
  ShardedSim(const Network& net, RoutingOracle& oracle,
             const TrafficPattern& traffic, SimConfig config,
             fault::DegradedView* degraded,
             std::vector<fault::FaultEvent> fault_events);

 private:
  std::unique_ptr<detail::PacketDriver> driver_;
};

/// Sweep injection rates through ShardedSim — the sharded counterpart of
/// the serial load_sweep driver.  Each probe constructs a fresh engine
/// (private degraded copies per shard), so results are independent of
/// probe order and identical at any shard count.
[[nodiscard]] std::vector<SimResult> load_sweep_sharded(
    const routing::NextHop& router, const TrafficPattern& traffic,
    const SimConfig& base, const std::vector<double>& rates,
    std::uint32_t shards,
    const fault::DegradedView* degraded = nullptr,
    const std::vector<fault::FaultEvent>& fault_events = {});

}  // namespace nbclos::sim
