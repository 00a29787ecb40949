/// \file result.hpp
/// \brief What a flow-engine run reports: the aggregate FlowResult and,
///        when the deadlock watchdog trips, the stall forensics, in the
///        global buffer id space at any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nbclos/obs/flight_recorder.hpp"

namespace nbclos::flow {

struct FlowResult {
  // Fields shared with sim::SimResult (same names, same semantics, same
  // arithmetic) — the golden equivalence tests compare these across
  // engines field by field.
  double offered_load = 0.0;          ///< config injection rate
  double accepted_throughput = 0.0;   ///< ejected flits/terminal/cycle
  double mean_latency = 0.0;          ///< cycles, tail ejection - injection
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double p999_latency = 0.0;
  double latency_bucket_width = 1.0;
  std::uint64_t injected_packets = 0;
  std::uint64_t delivered_packets = 0;
  /// Packets refused at injection because the source NIC uplink was dead
  /// (fail-stop fault model: in-network flits are never purged — they
  /// block in place and eventually trip the watchdog; only packets that
  /// cannot even enter the network are dropped).
  std::uint64_t dropped_packets = 0;
  /// Time-average flits queued per switch output channel (all VCs of a
  /// channel summed) — with 1-flit packets and vcs = 1 this is unit-for-
  /// unit PacketSim's mean_switch_queue_depth.
  double mean_switch_queue_depth = 0.0;
  double min_flow_throughput = 0.0;
  double max_flow_throughput = 0.0;

  // Flow-control-specific telemetry.
  std::uint64_t credit_stall_cycles = 0;  ///< head/body refused by backpressure
  std::uint64_t vc_stall_cycles = 0;      ///< head refused: no claimable VC
  double mean_stall_cycles = 0.0;         ///< per stall episode
  double p99_stall_cycles = 0.0;
  std::uint32_t peak_buffer_flits = 0;    ///< high-water switch FIFO occupancy
  std::uint64_t peak_live_packets = 0;    ///< high-water packets in system

  // Deadlock watchdog diagnostic (run stops at deadlock_cycle when set).
  bool deadlocked = false;
  std::uint64_t deadlock_cycle = 0;
  std::uint64_t stuck_flits = 0;
  std::vector<std::uint32_t> stuck_buffers;  ///< sample of occupied buffer ids

  /// accepted < 95% of offered — saturated at this load (PacketSim rule).
  [[nodiscard]] bool saturated() const {
    return accepted_throughput < 0.95 * offered_load;
  }
};

/// One blocked FIFO in a deadlock forensics report: where its head is
/// stuck, what it is waiting for, and since when.
struct BlockedBufferReport {
  /// waiting_for when the wait target is unknown (empty FIFO, or a
  /// terminal-bound head, which never blocks downstream).
  static constexpr std::uint32_t kWaitsOnNone = UINT32_MAX;

  std::uint32_t buffer = 0;   ///< global buffer id (ChannelFacts' space)
  std::uint32_t channel = 0;  ///< channel owning the buffer
  std::uint32_t occupancy = 0;  ///< flits queued in the FIFO at the trip
  /// The downstream buffer the head flit needs space in: the worm's
  /// out_alloc for body flits, the allocation scan's first candidate for
  /// a head still waiting to claim a VC.
  std::uint32_t waiting_for = kWaitsOnNone;
  std::uint64_t blocked_since = 0;  ///< cycle the stall episode began
  bool on_cycle = false;  ///< member of the circular-wait chain, if any
};

/// Stall forensics captured when the deadlock watchdog trips: every
/// genuinely blocked FIFO (capped at kMaxBlocked, circular-wait members
/// kept preferentially), the circular-wait chain found by following the
/// waiting_for edges, and the last kTailPoints samples of each
/// flight-recorder series — "what the system looked like just before it
/// stopped".  The chain walk is exact for body flits (the worm's
/// out_alloc IS the wait edge) and first-candidate for blocked heads,
/// which with one VC — the classic wormhole-deadlock configuration — is
/// exact too.
struct DeadlockForensics {
  static constexpr std::size_t kTailPoints = 16;
  static constexpr std::size_t kMaxBlocked = 32;

  bool valid = false;  ///< set iff the watchdog tripped
  std::uint64_t trip_cycle = 0;
  std::uint64_t stuck_flits = 0;
  std::vector<BlockedBufferReport> blocked;  ///< ascending buffer id
  /// Buffers forming one circular wait (first found, walk order), empty
  /// when the blocked set is acyclic inside the report.
  std::vector<std::uint32_t> wait_cycle;
  std::vector<obs::MergedSeries> tail;  ///< recorder tail at the trip
};

namespace detail {
/// Forensics finisher, run once over every shard's report: sort the raw
/// blocked list by buffer id, find a circular wait by following the
/// waiting_for edges, mark its members, and cap the list keeping chain
/// members preferentially.
void finalize_forensics(DeadlockForensics& forensics);
}  // namespace detail

}  // namespace nbclos::flow
