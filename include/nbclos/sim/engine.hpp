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
/// Per cycle: arrivals -> transmission starts -> injection.  All
/// iteration orders are fixed, so runs are bit-reproducible from seeds.
///
/// Hot-path implementation (see DESIGN.md §"simulator performance
/// model"): per-cycle cost scales with the number of packets in the
/// system, not the fabric size.  Channels that hold traffic are tracked
/// in two active sets (in-flight and sendable), queues live in a
/// flat ring-buffer pool instead of per-channel deques, the mean queue
/// depth is a maintained running sum, and latency quantiles come from a
/// streaming histogram — no end-of-run sort.  The active lists are
/// bitmap ActiveSets swept in ascending channel id, so the visit order
/// (and therefore every oracle/RNG consultation) is identical to a full
/// ascending scan and results stay bit-reproducible, with no sort.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/sim/oracle.hpp"
#include "nbclos/sim/traffic.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/active_set.hpp"
#include "nbclos/util/stats.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos::sim {

struct SimConfig {
  double injection_rate = 0.1;   ///< offered load, flits/cycle/terminal
  std::uint32_t packet_size = 1; ///< flits per packet
  std::uint32_t queue_capacity = 8;  ///< packets per switch output queue
  std::uint64_t warmup_cycles = 2000;
  std::uint64_t measure_cycles = 8000;
  std::uint64_t seed = 42;
  /// Draw injection randomness from the counter-based discipline
  /// (injection_rng.hpp) instead of the engine's sequential Xoshiro
  /// stream: every (cycle, terminal) draw becomes a pure function of the
  /// seed, which is what lets ShardedSim reproduce PacketSim
  /// bit-identically at any shard count.  Off by default — the legacy
  /// stream is part of the recorded golden results.
  bool counter_injection = false;
  /// Arm the flight recorder (obs::FlightRecorder): sample aggregate
  /// engine telemetry every record_cadence cycles into fixed-budget ring
  /// buffers (per shard in the sharded engine, merged bit-identically at
  /// any shard count).  Recording never feeds back into simulation
  /// state, so results are identical with it off, on, or compiled out.
  bool record_timeseries = false;
  /// Cycles between flight-recorder samples (before downsampling).
  std::uint64_t record_cadence = 64;
  /// Per-series per-shard ring budget in samples.
  std::uint32_t record_ring_capacity = 512;

  /// Queue capacity at which no switch queue can fill on the topologies
  /// and loads this library sweeps: in the nonblocking regime queues stay
  /// a handful of packets deep, so 1024 behaves as infinite while keeping
  /// the flat queue pool around ~10 MB on ftree(4+16, 8).
  static constexpr std::uint32_t kEffectivelyInfiniteQueueCapacity = 1024;

  /// The documented ideal-switch reference configuration: single-flit
  /// packets and effectively-infinite queues, i.e. the regime the paper's
  /// Theorems 1-3 assume.  flow::FlowConfig::ideal_reference mirrors this
  /// factory, and the cross-engine golden tests require FlowSim to
  /// reproduce PacketSim bit-identically under the pair.
  [[nodiscard]] static SimConfig ideal_reference(double injection_rate,
                                                 std::uint64_t seed) {
    SimConfig config;
    config.injection_rate = injection_rate;
    config.packet_size = 1;
    config.queue_capacity = kEffectivelyInfiniteQueueCapacity;
    config.seed = seed;
    return config;
  }

  /// True when this configuration is in the ideal-switch regime the
  /// golden equivalence tests rely on.
  [[nodiscard]] bool ideal_switch_regime() const noexcept {
    return packet_size == 1 &&
           queue_capacity >= kEffectivelyInfiniteQueueCapacity;
  }
};

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

class PacketSim {
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
  /// accumulator.
  [[nodiscard]] LinkUtilization link_utilization() const;

  /// The per-epoch time-series recorder (inactive unless
  /// SimConfig::record_timeseries).  Series are stable after run().
  [[nodiscard]] const obs::FlightRecorder& recorder() const {
    return recorder_;
  }

 private:
  /// The packet occupying a channel, if any (one per channel: a channel
  /// carries one packet at a time; `arrival_cycle` is when its last flit
  /// lands at the channel's destination vertex).
  struct InFlight {
    Packet packet;
    std::uint64_t arrival_cycle = 0;
    bool valid = false;
  };

  void step_arrivals();
  void step_transmissions();
  void step_injection();
  /// Route a new packet from terminal `t` to `dst` onto its NIC queue.
  void inject_packet(std::uint32_t t, std::uint32_t dst);
  void deliver(const Packet& packet);
  /// Apply fault events due at now_; purge packets on channels that died.
  void apply_due_faults();
  [[nodiscard]] bool channel_usable(std::uint32_t channel) const {
    return degraded_ == nullptr || degraded_->channel_alive(channel);
  }

  // --- flat queue pool (FIFO ring per channel) --------------------------
  // Switch output queues are capacity-bounded slices of one contiguous
  // pool; terminal NIC send queues are unbounded power-of-two rings in a
  // per-terminal growable arena.  `queue_depth_` mirrors the size of
  // switch queues only (the oracle-visible SimView; terminal queues read
  // as 0, as before).
  void queue_push(std::uint32_t channel, const Packet& packet);
  [[nodiscard]] Packet queue_pop(std::uint32_t channel);
  void queue_clear(std::uint32_t channel);

  const Network* net_;
  RoutingOracle* oracle_;
  const TrafficPattern* traffic_;
  SimConfig config_;
  fault::DegradedView* degraded_ = nullptr;
  std::vector<fault::FaultEvent> fault_events_;  ///< sorted by cycle
  std::size_t next_fault_ = 0;
  std::uint64_t dropped_packets_ = 0;

  std::vector<InFlight> flight_;            ///< per channel
  std::vector<std::uint32_t> q_head_;       ///< per channel ring head
  std::vector<std::uint32_t> q_size_;       ///< per channel ring occupancy
  /// Switch channel: element offset into switch_pool_ (index * slice,
  /// where the slice is queue_capacity rounded up to a power of two so
  /// ring wrap-around is a mask, not a division); terminal channel: index
  /// into term_rings_.
  std::vector<std::uint32_t> pool_base_;
  std::uint32_t switch_slice_mask_ = 0;  ///< slice size - 1
  std::vector<Packet> switch_pool_;         ///< all switch queues, contiguous
  std::vector<std::vector<Packet>> term_rings_;  ///< growable terminal rings
  std::vector<std::uint32_t> queue_depth_;  ///< switch queue sizes (SimView)

  // Active channels, swept in ascending id (a full channel scan's order):
  // `flying_` holds those with a valid in-flight packet, `sendable_` those
  // with a non-empty queue, each plus any a fault purged since its sweep.
  ActiveSet flying_;
  ActiveSet sendable_;

  // Per-channel precomputed topology facts (avoids graph lookups per hop).
  std::vector<std::uint32_t> channel_dst_;
  std::vector<std::uint8_t> dst_is_terminal_;
  std::vector<std::uint8_t> is_terminal_source_queue_;

  // Per-queue round-robin arbitration state (see step_arrivals).
  std::vector<std::vector<std::uint32_t>> arrival_candidates_;
  std::vector<std::uint32_t> arrival_targets_;
  std::vector<std::uint32_t> rr_last_winner_;
  std::vector<std::uint32_t> terminal_vertices_;

  Xoshiro256 rng_;
  std::uint64_t now_ = 0;
  std::uint64_t next_packet_id_ = 0;
  double packet_rate_ = 0.0;  ///< injection_rate / packet_size, hoisted
  SimView view_;              ///< stable oracle view, hoisted out of steps
  std::vector<std::uint64_t> flow_sequence_;  ///< per source terminal

  bool measuring_ = false;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_measured_flits_ = 0;
  std::vector<std::uint64_t> delivered_per_source_;  ///< measured flits
  std::uint64_t delivered_packets_ = 0;
  RunningStats latency_;
  /// Exact integer latency accumulators: under counter_injection the
  /// reported mean is latency_sum_/latency_count_ (order-independent, so
  /// it matches ShardedSim's shard-merged mean bit-for-bit) instead of
  /// the Welford stream above.
  std::uint64_t latency_sum_ = 0;
  std::uint64_t latency_count_ = 0;
  QuantileHistogram latency_hist_;  ///< streaming p50/p99/p999
  std::uint64_t switch_depth_sum_ = 0;      ///< running sum over switch queues
  std::uint64_t switch_channel_count_ = 0;
  RunningStats queue_depth_samples_;

  // --- observability (none of it feeds back into simulation state, so
  // --- results are bit-identical with obs compiled out or disabled) ----
  /// Aggregate engine telemetry into obs::metrics() + sampled per-phase
  /// timings; called once at the end of run() when obs is enabled.
  void flush_obs(double wall_seconds);
  /// Register the flight-recorder series (constructor) and append one
  /// sample of every series at cycle `now_` into shard slot 0.
  void arm_recorder();
  void sample_recorder();
  std::vector<std::uint64_t> link_busy_flits_;  ///< per channel, whole run
  std::uint64_t busy_flit_total_ = 0;  ///< running sum of link_busy_flits_
  obs::FlightRecorder recorder_;
  obs::FlightRecorder::SeriesId rec_queue_depth_ = 0;
  obs::FlightRecorder::SeriesId rec_active_flying_ = 0;
  obs::FlightRecorder::SeriesId rec_active_sendable_ = 0;
  obs::FlightRecorder::SeriesId rec_busy_flits_ = 0;
  obs::FlightRecorder::SeriesId rec_injected_ = 0;
  obs::FlightRecorder::SeriesId rec_delivered_ = 0;
  std::uint64_t oracle_calls_ = 0;
  std::uint64_t active_flying_sum_ = 0;    ///< per-cycle |flying_| summed
  std::uint64_t active_sendable_sum_ = 0;  ///< per-cycle |sendable_| summed
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

/// Convenience: sweep injection rates and return one SimResult per rate.
///
/// Serial legacy form: one shared oracle, whose internal randomness
/// advances across runs.  When `degraded` is given, its entry state is
/// snapshotted and restored before every run (and on return), so each
/// rate sees the same initial fault mask even when `fault_events` mutate
/// it mid-run.
[[nodiscard]] std::vector<SimResult> load_sweep(
    const Network& net, RoutingOracle& oracle, const TrafficPattern& traffic,
    const SimConfig& base, const std::vector<double>& rates,
    fault::DegradedView* degraded = nullptr,
    const std::vector<fault::FaultEvent>& fault_events = {});

/// Parallel form: one private oracle and (when faulted) one private copy
/// of `*degraded` per run, evaluated over `pool` (nullptr = serial).
/// Per-run seeds and the merge order are fixed by the rate index, so the
/// results are field-for-field identical at any thread count, including
/// the serial path.  Each run keeps `base.seed` for the traffic/injection
/// stream (matching the legacy form); only the oracle seed varies.
[[nodiscard]] std::vector<SimResult> load_sweep(
    const Network& net, const OracleFactory& factory,
    const TrafficPattern& traffic, const SimConfig& base,
    const std::vector<double>& rates, ThreadPool* pool,
    const fault::DegradedView* degraded = nullptr,
    const std::vector<fault::FaultEvent>& fault_events = {});

/// Binary-search the saturation throughput: the highest offered load the
/// network still accepts (accepted >= 95% of offered).  Returns the last
/// sustainable load found within `iterations` bisection steps over
/// [0, 1].  The oracle's internal randomness advances across probes, so
/// pass a freshly-seeded oracle for reproducible results.  `degraded` +
/// `fault_events` pass through to every probe as in load_sweep.
[[nodiscard]] double find_saturation_load(
    const Network& net, RoutingOracle& oracle, const TrafficPattern& traffic,
    const SimConfig& base, std::uint32_t iterations = 6,
    fault::DegradedView* degraded = nullptr,
    const std::vector<fault::FaultEvent>& fault_events = {});

/// Parallel form: the bracketing phase probes a coarse load grid
/// concurrently over `pool` (nullptr = serial), then bisects the
/// bracketing interval serially.  Deterministic at any thread count.
[[nodiscard]] double find_saturation_load(
    const Network& net, const OracleFactory& factory,
    const TrafficPattern& traffic, const SimConfig& base,
    std::uint32_t iterations, ThreadPool* pool,
    const fault::DegradedView* degraded = nullptr,
    const std::vector<fault::FaultEvent>& fault_events = {});

}  // namespace nbclos::sim
