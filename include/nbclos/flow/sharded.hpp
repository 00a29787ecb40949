/// \file sharded.hpp
/// \brief The flow-engine driver: per-(channel, VC) flit buffers, credit
///        counters, and switch state in one kernel arena per shard;
///        shard-local hops execute in place and cross-shard hops
///        exchange proposal / grant messages between epoch barriers.
///
/// `ShardedFlowSim` is the only driver of the flit-move kernel
/// (kernel.hpp): run loop, watchdog, flight recorder, obs flush and the
/// result fold are written once here.  `FlowSim` (engine.hpp) is its
/// one-shard form.  The shard count picks the kernel's id map when the
/// engine is built:
///   * one shard — the arena holds the whole fabric and indexes it by
///     global id, exactly as the id tables would at S=1 but without
///     them: no ShardPlan, no mailboxes, no barriers.  The arena is
///     built at construction, so it can be probed before run().  Only
///     here may `FlowConfig::counter_injection` be false: the legacy
///     sequential injection stream with its Welford latency and stall
///     means, which PacketSim's golden equivalence needs;
///   * S >= 2 shards — the deterministic level-sliced vertex partition
///     (`sim::ShardPlan`) and SPSC mailbox / barrier-epoch machinery
///     (`sim/shard_exchange.hpp`) of `sim::ShardedSim`, with each arena
///     indexed by its shard's local ids and built on its worker thread
///     (first touch).  Injection always uses the counter-based RNG.
///
/// State placement under a cut (two roles per shard):
///   * the OWNER of channel c — shard_of(src(c)) — holds every buffer of
///     c: flit storage, claim and credit-ledger entries, on/off signal,
///     out_alloc, next_vc, and stall bookkeeping.  Arrival pushes into a
///     buffer of c are made by whoever transmitted on the upstream
///     channel c' with dst(c') = src(c) — and that transmitter runs on
///     shard_of(dst(c')) = owner(c), so pushes are owner-local too;
///   * the EXECUTOR of channel c — shard_of(dst(c)) — makes c's
///     transmission decisions: it routes, scans downstream VCs, checks
///     and sets claims, checks backpressure, and consumes credits.  All
///     of that state belongs to buffers sourced at dst(c), which the
///     executor owns, so decisions never touch foreign arenas.
/// A channel whose owner and executor coincide is SHARD-LOCAL: it sends
/// no message at all.  At one shard every channel is local.
///
/// Per cycle, with the sampled phase timers each step is booked under:
///   credit_returns — apply scheduled faults to the private DegradedView
///      copy, advance the credit ledger;
///   arrivals — land last cycle's wires (push or eject);
///   transmissions — (cut) send one *flit proposal* per non-empty VC of
///      each active cross-shard channel to the channel's executor;
///      -- barrier 1 --  then walk the merged proposals together with
///      this shard's active local channels in ascending channel order: a
///      local channel runs the kernel's one-pass `transmit` in place, a
///      proposed channel runs the kernel's VC scan (`downstream` +
///      `send`) and sends the outcome back to its owner as a *transmit
///      grant* (winner VC + per-VC stall masks); -- barrier 2 -- then
///      apply the merged grants in ascending channel order: stall
///      bookkeeping, then the kernel's `pop` of the winner, which
///      schedules the credit return right there (the owner holds the
///      ledger, so credits never cross the cut as messages);
///   injection — inject over owned terminals, latch on/off, record this
///      cycle's depth sum and recorder sample;
///   mailbox — (cut) the proposal and grant merges;
/// then, at watchdog epochs, aggregate stuck-flit counts across ALL
/// shards (one extra barrier under a cut) before deciding: per-shard
/// verdicts would miss deadlocks whose cycle spans the cut.
///
/// Wires carry slots of the executor's own PacketPool (it owns every
/// buffer and terminal its wires land in).  A shard-local hop moves the
/// FIFO's slot with the flit; a cross-shard head lands on the copy the
/// executor makes when it wins, which its claim names for the body
/// flits, and a cross-shard ejection copies per flit.
///
/// Determinism contract: routing through the shared read-only
/// `routing::NextHop` (a `ChannelRouteCache` table or a pure arithmetic
/// router — both deterministic), counter-based injection, exact
/// integer statistic merges, and per-executor ascending channel order
/// (all cross-channel interaction within a cycle — claims, credit
/// consumption — is confined to channels sharing a downstream vertex,
/// i.e. one executor) make a counter-injection run **bit-identical at
/// any shard count**, including under mid-run fault schedules, for
/// wormhole and VCT switching and credit and on/off backpressure.
/// tests/flow/test_flow_sharded.cpp asserts every FlowResult field,
/// the link-busy tallies, the forensics and the recorder series against
/// the one-shard run.
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
    std::uint64_t cross_shard_flits = 0;  ///< flit proposals via mailboxes
    /// Credit returns an owner scheduled for pops another shard granted.
    std::uint64_t cross_shard_credits = 0;
    std::uint64_t mailbox_peak = 0;  ///< max messages in one box drain
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
