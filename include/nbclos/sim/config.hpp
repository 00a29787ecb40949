/// \file config.hpp
/// \brief Configuration of the packet simulators (PacketSim, ShardedSim).
#pragma once

#include <cstdint>
#include <string>

#include "nbclos/util/check.hpp"

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
  /// reproduce PacketSim bit-identically under the pair — so it runs the
  /// counter stream, the flow engine's only one.
  [[nodiscard]] static SimConfig ideal_reference(double injection_rate,
                                                 std::uint64_t seed) {
    SimConfig config;
    config.injection_rate = injection_rate;
    config.packet_size = 1;
    config.queue_capacity = kEffectivelyInfiniteQueueCapacity;
    config.seed = seed;
    config.counter_injection = true;
    return config;
  }

  /// True when this configuration is in the ideal-switch regime the
  /// golden equivalence tests rely on.
  [[nodiscard]] bool ideal_switch_regime() const noexcept {
    return packet_size == 1 &&
           queue_capacity >= kEffectivelyInfiniteQueueCapacity;
  }

  /// The first rule this configuration breaks, or nullptr when both
  /// packet engines can run it.
  [[nodiscard]] const char* invalid_reason() const noexcept {
    if (!(injection_rate >= 0.0 && injection_rate <= 1.0)) {
      return "injection rate must be in [0, 1] flits/cycle";
    }
    if (packet_size < 1) return "packets need at least one flit";
    if (queue_capacity < 1) return "queues need capacity >= 1";
    return nullptr;
  }

  /// Throws precondition_error naming invalid_reason(), if any.  Both
  /// engine constructors call it.
  void validate() const {
    if (const char* reason = invalid_reason()) {
      throw precondition_error(std::string("invalid sim config: ") + reason);
    }
  }
};

}  // namespace nbclos::sim
