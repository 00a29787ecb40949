/// \file config.hpp
/// \brief Configuration for the cycle-level flow-control engine.
///
/// flow::FlowSim models what sim::PacketSim abstracts away: *finite*
/// router buffers and the backpressure protocol that keeps them from
/// overflowing.  The configuration picks the three axes real routers
/// differ on:
///   * buffer depth — flits per (output channel, virtual channel) FIFO;
///   * signaling    — credit-based (sender counts free downstream slots)
///     or on/off (receiver asserts a stop signal near the high-water
///     mark, one cycle of signaling delay);
///   * switching    — wormhole (a head flit advances as soon as one
///     downstream slot is free; the packet's flits may span several
///     routers) or virtual cut-through (the head waits until the whole
///     packet fits downstream, so a packet never straddles a stalled
///     boundary).
#pragma once

#include <cstdint>
#include <string>

#include "nbclos/util/check.hpp"

namespace nbclos::flow {

enum class Switching : std::uint8_t {
  kWormhole,         ///< head needs 1 free downstream slot; worm may span routers
  kVirtualCutThrough ///< head needs packet_flits free slots; packet moves whole
};

enum class Backpressure : std::uint8_t {
  kCredit,  ///< per-buffer credit counters, returns delayed credit_delay cycles
  kOnOff    ///< stop bit asserted at the high-water mark, 1-cycle signal delay
};

struct FlowConfig {
  double injection_rate = 0.1;    ///< offered load, flits/cycle/terminal
  std::uint32_t packet_flits = 4; ///< flits per packet
  /// Capacity of every switch (channel, VC) output FIFO, in flits.
  /// Terminal NIC send queues stay unbounded, exactly as in PacketSim.
  std::uint32_t buffer_flits = 8;
  std::uint32_t vcs = 1;          ///< virtual channels per physical channel
  Switching switching = Switching::kWormhole;
  Backpressure backpressure = Backpressure::kCredit;
  /// Cycles before a freed buffer slot is visible upstream again (credit
  /// mode only; on/off always signals with a 1-cycle delay).
  std::uint32_t credit_delay = 1;
  std::uint64_t warmup_cycles = 2000;
  std::uint64_t measure_cycles = 8000;
  std::uint64_t seed = 42;
  /// Forward-progress check period for the deadlock watchdog: if a whole
  /// epoch passes in which no flit moves while flits are in the system,
  /// the run aborts cleanly with a diagnostic (FlowResult::deadlocked).
  /// 0 disables the watchdog.
  std::uint64_t watchdog_epoch = 1024;
  /// Injection always draws from the counter-based discipline
  /// (sim/injection_rng.hpp): every (cycle, terminal) draw is a pure
  /// function of the seed, so a run is bit-identical at any shard count,
  /// and mean latency / mean stall are exact integer sums over counts.
  /// The field is kept only because `perfbench/nbbench.cpp` assigns it
  /// (ROADMAP item 8 removes it with the next benchmark definition);
  /// invalid_reason() rejects `false`.
  bool counter_injection = true;
  /// Arm the obs::FlightRecorder: sample engine-level time series
  /// (buffer occupancy, stall counters, blocked heads) every
  /// record_cadence cycles into fixed-budget rings.  Off by default and
  /// a no-op when the library is built with -DNBCLOS_OBS=OFF.  The
  /// kInvariant series merge bit-identically at any shard count (same
  /// contract as the FlowResult itself).
  bool record_timeseries = false;
  std::uint64_t record_cadence = 64;      ///< cycles between samples
  std::uint32_t record_ring_capacity = 512;  ///< samples kept per series

  /// Buffer depth at which no switch FIFO can fill in the ideal-switch
  /// golden regime (see ideal_reference()); mirrors
  /// sim::SimConfig::kEffectivelyInfiniteQueueCapacity, measured in flits
  /// rather than packets because flow buffers hold flits.
  static constexpr std::uint32_t kEffectivelyInfiniteBufferFlits = 1024;

  /// Most virtual channels per physical channel.
  static constexpr std::uint32_t kMaxVcs = 32;

  /// Deepest FIFO and longest credit return: a bound buffer slot holds
  /// bit_ceil(buffer_flits) flits, a delay line bit_ceil(delay + 1) lists.
  static constexpr std::uint32_t kMaxBufferFlits = 1u << 16;
  static constexpr std::uint32_t kMaxCreditDelay = 1024;

  /// The documented single-flit / effectively-infinite-buffer reference
  /// configuration: with it, wormhole == VCT == store-and-forward and no
  /// backpressure ever engages, so FlowSim must reproduce
  /// sim::SimConfig::ideal_reference() PacketSim results bit-identically
  /// on contention-free (nonblocking) routings.  Keep the two factories
  /// in sync — the cross-engine golden tests rely on both.
  [[nodiscard]] static FlowConfig ideal_reference(double injection_rate,
                                                  std::uint64_t seed) {
    FlowConfig config;
    config.injection_rate = injection_rate;
    config.packet_flits = 1;
    config.buffer_flits = kEffectivelyInfiniteBufferFlits;
    config.vcs = 1;
    config.switching = Switching::kWormhole;
    config.backpressure = Backpressure::kCredit;
    config.seed = seed;
    return config;
  }

  /// True when this configuration is in the ideal-switch regime the
  /// golden equivalence tests rely on.
  [[nodiscard]] bool ideal_switch_regime() const noexcept {
    return packet_flits == 1 && vcs == 1 &&
           buffer_flits >= kEffectivelyInfiniteBufferFlits;
  }

  /// Free downstream slots a head flit must see before it may start
  /// transmitting (the switching-mode reservation).
  [[nodiscard]] std::uint32_t head_reservation_flits() const noexcept {
    return switching == Switching::kVirtualCutThrough ? packet_flits : 1u;
  }

  /// On/off high-water mark: the receiver asserts "off" once occupancy
  /// reaches buffer_flits - head_reservation_flits().  The reservation
  /// plus the 1-cycle signaling delay bound occupancy at buffer_flits
  /// (see DESIGN.md "flow-control engine" for the overshoot argument).
  [[nodiscard]] std::uint32_t onoff_off_threshold() const noexcept {
    return buffer_flits - head_reservation_flits();
  }

  /// The first rule this configuration breaks, or nullptr when both
  /// flow engines can run it.  The CLI reports it as a usage error.
  [[nodiscard]] const char* invalid_reason() const noexcept {
    if (!(injection_rate >= 0.0 && injection_rate <= 1.0)) {
      return "injection rate must be in [0, 1] flits/cycle";
    }
    if (packet_flits < 1) return "packets need at least one flit";
    if (!counter_injection) {
      return "injection draws only from the counter-based stream: "
             "counter_injection must be true";
    }
    if (vcs < 1 || vcs > kMaxVcs) return "virtual channels must be in 1..32";
    if (buffer_flits < 1 || buffer_flits > kMaxBufferFlits) {
      return "switch buffers must hold 1..65536 flits";
    }
    // A same-cycle credit return would make transmissions depend on the
    // channel visit order, and could not cross a shard cut in time.
    if (credit_delay < 1 || credit_delay > kMaxCreditDelay) {
      return "credit return delay must be in 1..1024 cycles";
    }
    if (switching == Switching::kVirtualCutThrough &&
        buffer_flits < packet_flits) {
      return "virtual cut-through buffers a whole packet per FIFO: "
             "buffer_flits must be >= packet_flits";
    }
    if (backpressure == Backpressure::kOnOff &&
        buffer_flits < head_reservation_flits() + 1) {
      return "on/off signaling needs one slot of slack beyond the head "
             "reservation (see onoff_off_threshold)";
    }
    return nullptr;
  }

  /// Throws precondition_error naming invalid_reason(), if any.  Both
  /// engine constructors call it.
  void validate() const {
    if (const char* reason = invalid_reason()) {
      throw precondition_error(std::string("invalid flow config: ") + reason);
    }
  }
};

}  // namespace nbclos::flow
