/// \file sharded.hpp
/// \brief The flow-engine driver: one kernel arena per shard; every hop
///        runs the kernel's one `transmit`, and what a hop changes on
///        the far side of a shard cut crosses in one exchange per cycle.
///
/// `ShardedFlowSim` is the only driver of the flit-move kernel
/// (kernel.hpp): run loop, watchdog, flight recorder, obs flush and the
/// result fold are written once here.  `FlowSim` (engine.hpp) is its
/// one-shard form.  The shard count picks the kernel's id map when the
/// engine is built:
///   * one shard — the arena holds the whole fabric and indexes it by
///     global id: no ShardPlan, no mailboxes, no barrier.  The arena is
///     built at construction, so it can be probed before run().  Only
///     here may `FlowConfig::counter_injection` be false: the legacy
///     sequential injection stream with its Welford latency and stall
///     means, which PacketSim's golden equivalence needs;
///   * S >= 2 shards — the level-sliced vertex partition
///     (`sim::ShardPlan`), SPSC mailboxes and the barrier
///     (`sim/shard_exchange.hpp`); each arena is indexed by its shard's
///     local ids and built on its worker thread (first touch).
///     Injection always uses the counter-based RNG.
///
/// Under a cut the READER of channel c, shard_of(dst(c)), holds the read
/// sides of c's buffers (kernel.hpp) and runs `transmit` on c; the
/// write sides it reads and changes there belong to channels leaving
/// dst(c), so they are its own.  The WRITER, shard_of(src(c)), holds the
/// write sides: claims, credit counters with their delay line, on/off
/// bits.  A channel with both ends on one shard sends no mail.
///
/// Per cycle, with the phase timer each step is booked under:
///   mailbox — (cut) receive last cycle's mail: flits (a head with its
///      packet), credit returns, on/off bits, injected packets;
///   credit_returns — apply scheduled faults to the private DegradedView
///      copy, advance the credit ledger;
///   arrivals — land last cycle's wires (a mailed wire only frees its
///      writer's claim at the tail);
///   transmissions — `transmit` on every active channel this shard
///      reads, in ascending channel order, mailing what crosses;
///   injection — inject over owned terminals, latch on/off, record this
///      cycle's depth sum and recorder sample;
///   barrier_wait — (cut) the one exchange: this cycle's mail becomes
///      readable.
/// At watchdog epochs every shard audits credit conservation, then the
/// epoch barrier aggregates stuck-flit counts across ALL shards:
/// per-shard verdicts would miss deadlocks whose cycle spans the cut.
///
/// One exchange suffices because every effect on the far side of a cut
/// lags by at least one cycle: a flit lands the next cycle, a credit
/// comes due `credit_delay >= 1` cycles after its pop, an on/off bit
/// latched at the end of a cycle is read in the next one, and an
/// injected packet first moves the next cycle.  The writer frees its
/// claim when the tail lands, a cycle it knows from its own wire.
///
/// Determinism contract: a shared read-only `routing::NextHop`,
/// counter-based injection, exact integer statistic merges, and
/// per-reader ascending channel order (all interaction between channels
/// within a cycle — claims, credit consumption — couples channels into
/// one vertex, i.e. one reader) make a counter-injection run
/// **bit-identical at any shard count**, including under mid-run fault
/// schedules, for wormhole and VCT switching and credit and on/off
/// backpressure.  tests/flow/test_flow_sharded.cpp asserts every
/// FlowResult field, the link-busy tallies, the forensics and the
/// recorder series against the one-shard run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/flow/buffers.hpp"
#include "nbclos/flow/config.hpp"
#include "nbclos/flow/result.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/sim/traffic.hpp"

namespace nbclos::flow {

namespace detail {
class FlowDriver;  ///< one run's state over one id map (sharded.cpp)
}  // namespace detail

class ShardedFlowSim {
 public:
  /// Engine-health telemetry for one run (valid after run(); all zero at
  /// one shard).
  struct Telemetry {
    std::uint64_t cross_shard_flits = 0;  ///< flits mailed across the cut
    /// Credit returns mailed to the writer of the popped buffer.
    std::uint64_t cross_shard_credits = 0;
    std::uint64_t mailbox_peak = 0;  ///< max messages in one box drain
    /// Barrier phases the run completed: one per cycle plus one per
    /// watchdog epoch.
    std::uint64_t barrier_phases = 0;
  };

  /// `routes` pins the Network and the routing; it is shared read-only
  /// across shards and sweep workers, so it arrives as a shared_ptr.  A
  /// `ChannelRouteCache` works at any size its O(T^2) table fits; a pure
  /// router (e.g. `sim::KaryDmodkRouter`) builds no pair table, which is
  /// the only way a 10^6-terminal run fits.
  ///
  /// Optional faults: `degraded` seeds one PRIVATE copy of the liveness
  /// mask per shard (the caller's view is never mutated — unlike
  /// PacketSim) and `fault_events` are applied to every copy at their
  /// scheduled cycles, so the copies never diverge.  Semantics are
  /// fail-stop blocking: a dead channel transmits nothing (its flits
  /// wait in place — deadlock territory, by design), a head flit whose
  /// route leads into a dead channel stalls as a credit block, and only
  /// injection onto a dead NIC uplink drops the packet
  /// (FlowResult::dropped_packets).
  ShardedFlowSim(std::shared_ptr<const routing::NextHop> routes,
                 const sim::TrafficPattern& traffic, FlowConfig config,
                 std::uint32_t shards,
                 const fault::DegradedView* degraded = nullptr,
                 std::vector<fault::FaultEvent> fault_events = {});
  ~ShardedFlowSim();

  /// Run warmup + measurement across all shard workers; returns the
  /// merged aggregate results (bit-identical at any shard count).  Stops
  /// early (with result.deadlocked set) if the watchdog trips.  May be
  /// called once.
  [[nodiscard]] FlowResult run();

  /// Flits transmitted per channel over the whole run.  Valid after
  /// run().
  [[nodiscard]] const std::vector<std::uint64_t>& link_busy_flits() const;

  [[nodiscard]] std::uint32_t shard_count() const noexcept;
  [[nodiscard]] const Telemetry& telemetry() const noexcept;
  /// Resident bytes of the per-shard arenas: flit and packet pools,
  /// per-channel counts, link-busy tallies and the per-cycle replay
  /// arrays.
  [[nodiscard]] std::size_t arena_bytes() const noexcept;
  /// Flit/packet arena accounting summed over shards.  Valid at one
  /// shard from construction, at any shard count after run().
  [[nodiscard]] ArenaStats arena_stats() const noexcept;

  /// Credit-conservation audit over every switch buffer (see
  /// FlitKernel::credit_conservation_holds).  Checked internally at
  /// every watchdog epoch and at end of run.  Valid at one shard from
  /// construction, at any shard count after run().
  /// \pre credit backpressure mode.
  [[nodiscard]] bool credit_conservation_holds() const;

  /// The per-epoch time-series recorder (inactive unless
  /// FlowConfig::record_timeseries).  Every shard samples the same
  /// global cycles into its own slot; the kInvariant series merge
  /// bit-identically at any shard count.  Valid after run().
  [[nodiscard]] const obs::FlightRecorder& recorder() const;

  /// Deadlock forensics in the global buffer id space, merged across
  /// shards — valid (forensics().valid) only when the watchdog tripped.
  /// Valid after run().
  [[nodiscard]] const DeadlockForensics& forensics() const;

 private:
  std::unique_ptr<detail::FlowDriver> driver_;
};

}  // namespace nbclos::flow
