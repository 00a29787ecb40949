/// \file engine.hpp
/// \brief Cycle-level flow-control simulator: finite per-VC flit
///        buffers, credit / on-off backpressure, wormhole or
///        virtual-cut-through switching.
///
/// FlowSim refines sim::PacketSim from packet granularity down to flits.
/// Where PacketSim teleports a whole packet into an (effectively sized)
/// output queue, FlowSim moves one flit per channel per cycle between
/// *finite* output FIFOs and blocks the upstream flit in place when the
/// downstream FIFO has no room — which is exactly how head-of-line
/// blocking, credit stalls, buffer-induced tree saturation, and wormhole
/// deadlock arise in real folded-Clos routers (the effects the paper's
/// ideal-switch Theorems 1-3 abstract away).
///
/// Model (output-buffered, Dally & Towles conventions):
///   * every channel c owns `vcs` flit FIFOs at its source vertex; a
///     flit transmitted on c lands one cycle later in the downstream
///     FIFO its packet holds, or is ejected if dst(c) is a terminal;
///   * a head flit must first allocate a downstream (channel, VC):
///     the route comes from the shared routing::NextHop (a
///     ChannelRouteCache table or a pure O(1) router), the
///     VC from a first-free scan starting at the packet's current VC,
///     and the VC is *claimed* until the tail flit arrives — packets
///     never interleave inside a FIFO, and a buffer has at most one
///     writer in flight (what makes the occupancy bounds provable);
///   * wormhole: one free downstream slot admits the head, so a blocked
///     worm spans routers and holds its claims (the deadlock mechanism);
///     virtual cut-through: the head waits for the whole packet's worth
///     of space, so a stalled packet always fits in one router;
///   * backpressure is credit-based (conservative counters, delayed
///     returns) or on/off (stop bit, 1-cycle signal delay) — see
///     credits.hpp for the occupancy-bound arguments;
///   * terminal NIC send queues stay unbounded and injection mirrors
///     PacketSim's RNG call sequence exactly, which is what makes the
///     cross-engine golden equivalence test possible (see
///     FlowConfig::ideal_reference).
///
/// The rules of one flit move live in one kernel (kernel.hpp) that
/// ShardedFlowSim's shards run too; FlowSim is the kernel over one arena
/// indexed by global ids.  Per cycle: credit returns -> wire arrivals
/// (FlitKernel::land) -> transmissions (FlitKernel::transmit per active
/// channel) -> injection -> on/off latch -> depth sample -> watchdog.
/// All iteration orders are fixed (active channels swept in ascending
/// id, the PacketSim discipline), so runs are bit-reproducible from
/// seeds and sweeps are thread-count independent.
///
/// The deadlock watchdog is the robustness backstop: if a whole epoch
/// passes with flits in the system but none transmitted, the run stops
/// with a diagnostic instead of hanging — wormhole configurations on
/// cyclic channel dependencies *should* trip it (see tests/flow).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/flow/buffers.hpp"
#include "nbclos/flow/config.hpp"
#include "nbclos/flow/kernel.hpp"
#include "nbclos/flow/result.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/sim/traffic.hpp"
#include "nbclos/util/prng.hpp"
#include "nbclos/util/stats.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos::flow {

class FlowSim : private detail::FlitKernel<FlowSim> {
 public:
  /// `routes` pins the Network and the routing; it is shared read-only
  /// across the sweep workers, so it arrives as a shared_ptr.  A
  /// `ChannelRouteCache` works at any size its O(T^2) table fits; a pure
  /// router (e.g. `sim::KaryDmodkRouter`) builds no pair table, which is
  /// the only way a 10^6-terminal run fits.
  ///
  /// Optional faults: `degraded` seeds a PRIVATE copy of the liveness
  /// mask (the caller's view is never mutated — unlike PacketSim) and
  /// `fault_events` are applied to the copy at their scheduled cycles.
  /// Semantics are fail-stop blocking: a dead channel transmits nothing
  /// (its flits wait in place — deadlock territory, by design), a head
  /// flit whose route leads into a dead channel stalls as a credit
  /// block, and only injection onto a dead NIC uplink drops the packet
  /// (FlowResult::dropped_packets).
  FlowSim(std::shared_ptr<const routing::NextHop> routes,
          const sim::TrafficPattern& traffic, FlowConfig config,
          const fault::DegradedView* degraded = nullptr,
          std::vector<fault::FaultEvent> fault_events = {});

  /// Run warmup + measurement; returns aggregate results.  Stops early
  /// (with result.deadlocked set) if the watchdog trips.
  [[nodiscard]] FlowResult run();

  /// Flits transmitted per channel over the whole run.  Valid after run().
  [[nodiscard]] const std::vector<std::uint64_t>& link_busy_flits() const {
    return link_busy;
  }

  /// Credit-conservation audit over every switch buffer (see
  /// FlitKernel::credit_conservation_holds).  Checked internally at
  /// every watchdog epoch and at end of run; public so tests can probe
  /// it mid-run too.  \pre credit backpressure mode.
  using FlitKernel::credit_conservation_holds;

  /// The per-epoch time-series recorder (inactive unless
  /// FlowConfig::record_timeseries).  Valid after run().
  [[nodiscard]] const obs::FlightRecorder& recorder() const {
    return recorder_;
  }

  /// Deadlock forensics — valid (forensics().valid) only when the
  /// watchdog tripped.  Valid after run().
  [[nodiscard]] const DeadlockForensics& forensics() const {
    return forensics_;
  }

  /// Flit/packet arena accounting (bytes, slab residency) — valid any
  /// time; benches and the CLI manifest read it after run().
  [[nodiscard]] ArenaStats arena_stats() const;

 private:
  friend FlitKernel;

  // The kernel's id map: the one serial arena is indexed by global ids.
  static std::uint32_t buffer(std::uint32_t b) { return b; }
  static std::uint32_t channel(std::uint32_t c) { return c; }
  static std::uint32_t global_buffer(std::uint32_t b) { return b; }
  static std::uint32_t busy(std::uint32_t c) { return c; }
  void activate(std::uint32_t c) { active.insert(c); }
  void packet_entered(std::uint64_t /*now*/) {
    if (packets.live() > peak_live_packets_) {
      peak_live_packets_ = packets.live();
    }
  }
  void packet_left(std::uint64_t /*now*/) {}

  void step_injection();
  /// One simulated cycle's four phases, timed when `timed`.
  void step_phases(bool timed);
  /// True when the watchdog detects a whole epoch without forward
  /// progress while flits remain in the system.
  bool watchdog_tripped();
  void flush_obs(double wall_seconds);
  void arm_recorder();
  void sample_recorder();

  std::shared_ptr<const routing::NextHop> routes_;
  const sim::TrafficPattern* traffic_;
  std::vector<fault::FaultEvent> fault_events_;  ///< sorted by cycle
  std::uint32_t terminal_count_ = 0;

  Xoshiro256 rng_;  ///< legacy injection stream
  std::uint64_t now_ = 0;
  double packet_rate_ = 0.0;  ///< injection_rate / packet_flits
  bool measuring_ = false;
  std::uint64_t peak_live_packets_ = 0;
  RunningStats queue_depth_samples_;
  bool deadlocked_ = false;

  // Observability (never feeds back into simulation state).
  /// Sampled phase timers (every 64th cycle with obs on): credit
  /// returns, arrivals, transmissions, injection — ns summed over the
  /// sampled cycles.
  std::array<std::uint64_t, 4> phase_ns_{};
  std::uint64_t phase_samples_ = 0;
  obs::FlightRecorder recorder_;
  obs::FlightRecorder::SeriesId rec_in_system_ = 0;
  obs::FlightRecorder::SeriesId rec_buffer_occupancy_ = 0;
  obs::FlightRecorder::SeriesId rec_credit_stalls_ = 0;
  obs::FlightRecorder::SeriesId rec_vc_stalls_ = 0;
  obs::FlightRecorder::SeriesId rec_blocked_heads_ = 0;
  obs::FlightRecorder::SeriesId rec_injected_ = 0;
  obs::FlightRecorder::SeriesId rec_delivered_ = 0;
  DeadlockForensics forensics_;
};

/// Run one FlowSim per injection rate over `pool` (nullptr = serial).
/// Each run is fully determined by its config, so the results are
/// field-for-field identical at any thread count.
[[nodiscard]] std::vector<FlowResult> flow_load_sweep(
    const std::shared_ptr<const routing::NextHop>& routes,
    const sim::TrafficPattern& traffic, const FlowConfig& base,
    const std::vector<double>& rates, ThreadPool* pool);

}  // namespace nbclos::flow
