/// \file kernel.hpp
/// \brief The flit-move kernel: the rules of one flit crossing one
///        channel, run by every shard of the flow-engine driver
///        (sharded.hpp).
///
/// A kernel instance owns one arena: the flit FIFOs and packets of the
/// buffers it owns, their credit or on/off state, each owned channel's
/// VC arbiter, the wires landing next cycle, and the run statistics.
/// Its steps are the whole flit model:
///   * `transmit` — one pass over a channel: VC round-robin from the
///     arbiter's start, and for the first VC that can move, `downstream`
///     (head routing, first-free VC claim scan, backpressure admission;
///     body flits follow the worm's out_alloc), `send` (claim, credit
///     consume, wire) and `pop` (credit return or on/off dirty mark,
///     out_alloc, end of the stall episode, arbiter advance).  A VC
///     that cannot move opens or extends a stall episode;
///   * `land` — last cycle's wires push into their FIFOs or `eject`;
///   * `inject` — build a packet and queue it on its source NIC.
///
/// A shard calls `transmit` for the channels it both owns and executes
/// — at one shard, every active channel; for a channel whose ends sit
/// on two shards the executor runs `downstream` + `send` on a mailed
/// proposal and the owner runs `pop` on the returned grant.
///
/// Shards differ only in how a global id reaches the arena.  A shard
/// derives from FlitKernel<Shard> and supplies, at compile time:
///   buffer(b), channel(c)   global buffer / channel id -> arena index
///   global_buffer(lb)       arena buffer index -> global buffer id
///   busy(c)                 channel -> its link-busy tally
///   activate(c)             channel c holds flits: add it to the set
///                           whose sweep moves them
/// The one-shard arena maps by identity; a shard of a cut maps through
/// ShardPlan's local ids.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/flow/buffers.hpp"
#include "nbclos/flow/config.hpp"
#include "nbclos/flow/credits.hpp"
#include "nbclos/flow/result.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/sim/injection_rng.hpp"
#include "nbclos/sim/traffic.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/active_set.hpp"
#include "nbclos/util/prng.hpp"
#include "nbclos/util/stats.hpp"

namespace nbclos::flow::detail {

/// The `flow.stall_cycles` histogram both engines record every stall
/// episode into (a registry lookup: resolve it once per engine).
[[nodiscard]] obs::HistogramMetric& stall_metric();

/// Round-robin successor of VC `vc` among `count` (compare, no division).
[[nodiscard]] constexpr std::uint32_t next_vc(std::uint32_t vc,
                                              std::uint32_t count) noexcept {
  return vc + 1 == count ? 0u : vc + 1;
}

/// Per-channel facts over the global id space, built once per run and
/// read by every arena.  Global buffer ids: switch channels take `vcs`
/// consecutive ids in channel order, NIC channels one id each after all
/// switch buffers (the FlitBufferPool address split).  Only id->channel
/// decoding tables are kept, and those are per channel, not per buffer.
struct ChannelFacts {
  ChannelFacts(const Network& net, std::uint32_t vcs);

  std::uint32_t vcs = 1;
  std::vector<std::uint32_t> buf_base;  ///< first global buffer id of c
  std::vector<std::uint8_t> is_nic;     ///< source vertex is a terminal
  std::vector<std::uint32_t> dst;       ///< destination vertex of c
  std::vector<std::uint8_t> dst_is_terminal;
  std::vector<std::uint32_t> channel_of_switch;  ///< switch index -> c
  std::vector<std::uint32_t> channel_of_nic;     ///< NIC index -> c
  std::uint32_t switch_buffers = 0;  ///< global switch buffer count

  [[nodiscard]] std::uint32_t vc_count(std::uint32_t c) const {
    return is_nic[c] ? 1u : vcs;
  }
  [[nodiscard]] std::uint32_t buffer_count() const {
    return switch_buffers + static_cast<std::uint32_t>(channel_of_nic.size());
  }
  /// The channel owning global buffer `b`.
  [[nodiscard]] std::uint32_t channel_of(std::uint32_t b) const {
    if (b >= switch_buffers) return channel_of_nic[b - switch_buffers];
    return channel_of_switch[vcs == 1 ? b : b / vcs];
  }
};

/// A flit on a channel an arena executes, landing next cycle in one of
/// the arena's own FIFOs or ejecting at one of its terminals.  At most
/// one wire per channel per cycle, and at most one targets any buffer
/// (the claim serializes writers).
struct Wire {
  std::uint32_t channel = 0;
  std::uint32_t target = 0;  ///< global downstream buffer id, or kEject
  /// target's pool slot (kNoSlot for kEject): the claim pins it until
  /// the tail lands.
  std::uint32_t target_slot = 0;
  FlitRef flit;  ///< packet_slot names the landing arena's PacketPool
  /// Cross-shard ejection: the flit carries its own packet copy, freed
  /// when it ejects (shared slots are freed by the tail).
  bool flit_copy = false;
};

/// A VC's head-of-line flit as a scan sees it (`packet` null for an
/// empty VC): read from the arena's FIFO, or from a mailed proposal.
struct FlitFront {
  std::uint32_t flit_index = 0;
  std::uint32_t out_alloc = kNoBuffer;  ///< body flits: the worm's buffer
  const sim::Packet* packet = nullptr;
};

/// Where a moving flit goes: a downstream buffer (global id) and its
/// pool slot, or the terminal sink (kNoBuffer, kNoSlot).
struct Hop {
  std::uint32_t target = kNoBuffer;
  std::uint32_t slot = FlitBufferPool::kNoSlot;
};

template <class Engine>
struct FlitKernel {
  static constexpr std::uint32_t kNone = kNoBuffer;
  static constexpr std::uint32_t kEject = kNoBuffer;  ///< wire target
  static constexpr std::uint32_t kNoSlot = FlitBufferPool::kNoSlot;

  FlitKernel(std::shared_ptr<const ChannelFacts> channel_facts,
             const routing::NextHop& next_hop, const FlowConfig& flow_config)
      : facts(std::move(channel_facts)),
        buf_base(facts->buf_base.data()),
        is_nic(facts->is_nic.data()),
        channel_dst(facts->dst.data()),
        dst_is_terminal(facts->dst_is_terminal.data()),
        routes(&next_hop),
        config(flow_config),
        head_reservation(flow_config.head_reservation_flits()),
        latency_hist(flow_config.warmup_cycles + flow_config.measure_cycles),
        stall_hist(flow_config.warmup_cycles + flow_config.measure_cycles),
        stall_metric(&detail::stall_metric()) {
    config.validate();
  }

  /// Build the arena on the calling thread (first touch): `switch_bufs`
  /// finite FIFOs and `nic_bufs` NIC queues, arbiters for `channels`
  /// owned channels, `executed` link-busy tallies, injection at
  /// terminals [lo, hi) of `terminals`, and a private copy of `faults`.
  void init_arena(std::uint32_t switch_bufs, std::uint32_t nic_bufs,
                  std::uint32_t channels, std::uint32_t executed,
                  std::uint32_t terminals, std::uint32_t lo, std::uint32_t hi,
                  const fault::DegradedView* faults) {
    pool.emplace(switch_bufs, nic_bufs, config.buffer_flits,
                 config.packet_flits);
    if (config.backpressure == Backpressure::kCredit) {
      ledger = std::make_unique<CreditLedger>(*pool, config.credit_delay);
    } else {
      onoff =
          std::make_unique<OnOffSignal>(*pool, config.onoff_off_threshold());
    }
    if (faults != nullptr) degraded.emplace(*faults);
    next_vc.assign(channels, 0);
    channel_flits.assign(channels, 0);
    active = ActiveSet(channels);
    link_busy.assign(executed, 0);
    peak_per_vc.assign(config.vcs, 0);
    delivered_per_source.assign(terminals, 0);
    term_lo = lo;
    flow_sequence.assign(hi - lo, 0);
    acq_by_cycle.assign(config.warmup_cycles + config.measure_cycles, 0);
    rel_by_cycle.assign(acq_by_cycle.size(), 0);
  }

  [[nodiscard]] bool usable(std::uint32_t c) const {
    return !degraded.has_value() || degraded->channel_alive(c);
  }

  /// Apply every scheduled fault due by `now` to the private copy.  No
  /// queue purging (fail-stop blocking semantics).
  void apply_due_faults(const std::vector<fault::FaultEvent>& events,
                        std::uint64_t now) {
    if (!degraded.has_value()) return;
    while (next_fault < events.size() && events[next_fault].cycle <= now) {
      degraded->apply(events[next_fault++]);
    }
  }

  /// Stall bookkeeping on the pool slot of a FIFO whose head could not
  /// move this cycle.
  void note_blocked(std::uint32_t s, bool credit_block, std::uint64_t now) {
    if (credit_block) {
      ++credit_stall_cycles;
    } else {
      ++vc_stall_cycles;
    }
    FlitBufferPool::BufferSlot& sl = pool->slot(s);
    if (sl.blocked_since_plus1 == 0) {
      sl.blocked_since_plus1 = now + 1;
      ++blocked_heads;
    }
  }

  /// The FIFO on slot `s` moved a flit: close its stall episode, if any.
  void note_unblocked(std::uint32_t s, std::uint64_t now) {
    FlitBufferPool::BufferSlot& sl = pool->slot(s);
    if (sl.blocked_since_plus1 == 0) return;
    const std::uint64_t duration = now - (sl.blocked_since_plus1 - 1);
    sl.blocked_since_plus1 = 0;
    --blocked_heads;
    stall_stats.add(static_cast<double>(duration));
    stall_duration_sum += duration;
    ++stall_episode_count;
    stall_hist.add(duration);
    stall_metric->record(duration);
  }

  /// Where front `f` of VC `vc` goes when it crosses channel c.  A head
  /// routes from dst(c) and takes the first VC of the next channel,
  /// starting at its own, that no packet claims and whose backpressure
  /// admits the head reservation (binding the buffer's slot).  A body
  /// flit follows the worm's out_alloc; under wormhole it re-checks
  /// backpressure every cycle, under VCT the head reserved the packet.
  /// A dead next channel blocks the head in place (fail-stop), booked
  /// as a credit stall.  Returns false when the VC stalls, with
  /// *credit_block telling why.  Every buffer read is the arena's own:
  /// the next channel leaves dst(c), which the executor of c owns.
  bool downstream(std::uint32_t c, std::uint32_t vc, const FlitFront& f,
                  Hop* hop, bool* credit_block) {
    if (dst_is_terminal[c]) return true;  // the sink always accepts
    if (f.flit_index > 0) {
      hop->target = f.out_alloc;
      NBCLOS_ASSERT(hop->target != kNone);
      hop->slot = pool->slot_id(self().buffer(hop->target));
      NBCLOS_ASSERT(hop->slot != kNoSlot);  // the worm's claim pins it
      if (config.switching == Switching::kWormhole &&
          !backpressure_admits(*pool, hop->slot, 1, ledger != nullptr)) {
        *credit_block = true;
        return false;
      }
      return true;
    }
    NBCLOS_ASSERT(f.out_alloc == kNone);
    ++route_lookups;
    const std::uint32_t nc = routes->next_channel_from(
        channel_dst[c], f.packet->src_terminal, f.packet->dst_terminal);
    NBCLOS_DEBUG_CHECK(routes->network().channel_src(nc) == channel_dst[c],
                       "route cache returned a foreign channel");
    if (!usable(nc)) {
      *credit_block = true;
      return false;
    }
    bool saw_credit_block = false;
    std::uint32_t nv = vc;
    for (std::uint32_t j = 0; j < config.vcs;
         ++j, nv = detail::next_vc(nv, config.vcs)) {
      const std::uint32_t nb = buf_base[nc] + nv;
      const std::uint32_t s = pool->slot_id(self().buffer(nb));
      if (s != kNoSlot && pool->slot(s).claim != kNone) continue;
      if (!backpressure_admits(*pool, s, head_reservation, ledger != nullptr)) {
        saw_credit_block = true;
        continue;
      }
      hop->target = nb;
      hop->slot = s != kNoSlot ? s : pool->bind(self().buffer(nb));
      return true;
    }
    *credit_block = saw_credit_block;
    return false;
  }

  /// Executor side of a moving flit: a head claims its downstream VC
  /// for its packet, the flit consumes a downstream credit, and it goes
  /// on channel c's wire.
  void send(std::uint32_t c, const Hop& hop, FlitRef flit, bool flit_copy) {
    if (hop.target != kEject) {
      FlitBufferPool::BufferSlot& t = pool->slot(hop.slot);
      if (flit.flit_index == 0) t.claim = flit.packet_slot;
      NBCLOS_ASSERT(t.claim == flit.packet_slot);
      if (ledger != nullptr) ledger->consume_at(hop.slot);
    }
    wires.push_back(Wire{c, hop.target, hop.slot, flit, flit_copy});
    ++link_busy[self().busy(c)];
    ++flits_moved_epoch;
  }

  /// Owner side of a moving flit: pop VC `vc` of channel c (pool slot
  /// `s`), schedule the switch buffer's credit return (or on/off dirty
  /// mark), record a head's downstream buffer `out_alloc` as the worm's
  /// and clear it at the tail, close the FIFO's stall episode, recycle a
  /// drained slot, and advance the arbiter past `vc`.
  FlitRef pop(std::uint32_t c, std::uint32_t vc, std::uint32_t s,
              std::uint32_t out_alloc, std::uint64_t now) {
    const FlitRef flit = pool->pop_at(s);
    const std::uint32_t li = self().channel(c);
    --channel_flits[li];
    if (!is_nic[c]) {
      if (ledger != nullptr) ledger->schedule_return_at(s, now);
      if (onoff != nullptr) onoff->mark_dirty_at(s);
    }
    FlitBufferPool::BufferSlot& sl = pool->slot(s);
    if (flit.flit_index == 0) sl.out_alloc = out_alloc;
    if (flit.flit_index + 1 == config.packet_flits) sl.out_alloc = kNone;
    note_unblocked(s, now);
    pool->maybe_release_at(s);  // a pending return or claim keeps it
    next_vc[li] = detail::next_vc(vc, is_nic[c] ? 1u : config.vcs);
    return flit;
  }

  /// One pass over channel c, which this arena both owns and executes:
  /// the first VC from the arbiter's start that can move sends its front
  /// flit and pops it; each VC before it that holds a flit stalls.  A
  /// dead channel moves nothing (its flits wait in place).  Returns
  /// whether a flit moved.
  bool transmit(std::uint32_t c, std::uint64_t now) {
    if (!usable(c)) return false;
    const std::uint32_t vc_count = is_nic[c] ? 1u : config.vcs;
    const std::uint32_t base = buf_base[c];
    std::uint32_t vc = next_vc[self().channel(c)];
    for (std::uint32_t k = 0; k < vc_count;
         ++k, vc = detail::next_vc(vc, vc_count)) {
      const std::uint32_t s = pool->slot_id(self().buffer(base + vc));
      if (s == kNoSlot || pool->slot(s).size == 0) continue;
      const FlitRef flit = pool->front_at(s);
      const FlitFront f{flit.flit_index, pool->slot(s).out_alloc,
                        &packets.at(flit.packet_slot)};
      Hop hop;
      bool credit_block = false;
      if (!downstream(c, vc, f, &hop, &credit_block)) {
        note_blocked(s, credit_block, now);
        continue;  // this VC stalls; the next may still use the channel
      }
      send(c, hop, flit, false);
      (void)pop(c, vc, s, hop.target, now);
      return true;
    }
    return false;
  }

  /// Land last cycle's wires: push into the target FIFO (activating its
  /// channel; a tail frees the VC's claim) or eject.  The wires are in
  /// ascending channel order — the sweeps are ascending and a channel
  /// moves one flit per cycle — so the latency accumulators see
  /// deliveries in a fixed order.
  void land(std::uint64_t now, bool measuring) {
    NBCLOS_DEBUG_CHECK(
        std::is_sorted(wires.begin(), wires.end(),
                       [](const Wire& a, const Wire& b) {
                         return a.channel < b.channel;
                       }),
        "wires must land in ascending channel order");
    for (const Wire& w : wires) {
      if (w.target == kEject) {
        eject(w, now, measuring);
        continue;
      }
      NBCLOS_DEBUG_CHECK(
          pool->slot_id(self().buffer(w.target)) == w.target_slot,
          "a wire's target slot must stay bound until landing");
      pool->push_at(w.target_slot, w.flit);
      const std::uint32_t oc = facts->channel_of(w.target);
      ++channel_flits[self().channel(oc)];
      self().activate(oc);
      if (onoff != nullptr) onoff->mark_dirty_at(w.target_slot);
      FlitBufferPool::BufferSlot& sl = pool->slot(w.target_slot);
      const std::uint32_t vc = w.target - buf_base[oc];
      if (sl.size > peak_per_vc[vc]) peak_per_vc[vc] = sl.size;
      if (w.flit.flit_index + 1 == config.packet_flits) {
        // Tail landed: the VC is whole again and accepts a new claimant.
        NBCLOS_ASSERT(sl.claim == w.flit.packet_slot);
        sl.claim = kNone;
      }
    }
    wires.clear();
  }

  /// Deliver one flit at its destination terminal.  Throughput accrues
  /// per flit inside the measurement window; latency is booked at the
  /// tail, which frees the packet slot.
  void eject(const Wire& w, std::uint64_t now, bool measuring) {
    const sim::Packet& packet = packets.at(w.flit.packet_slot);
    --flits_in_system;
    const bool tail = w.flit.flit_index + 1 == config.packet_flits;
    if (tail) ++delivered_packets;
    if (measuring) {
      ++delivered_measured_flits;
      ++delivered_per_source[packet.src_terminal];
      if (tail && packet.injected_cycle >= config.warmup_cycles) {
        const std::uint64_t latency = now - packet.injected_cycle;
        latency_stats.add(static_cast<double>(latency));
        latency_sum += latency;
        ++latency_count;
        latency_hist.add(latency);
      }
    }
    if (tail) ++rel_by_cycle[now];
    if (tail || w.flit_copy) packets.release(w.flit.packet_slot);
  }

  /// Counter-RNG injection at terminals [term_lo, term_lo + owned): every
  /// draw is a pure function of (seed, cycle, terminal), so how the
  /// terminals are split across arenas cannot change the stream.
  void inject_counter(const sim::TrafficPattern& traffic, double packet_rate,
                      std::uint64_t now) {
    const auto hi = term_lo + static_cast<std::uint32_t>(flow_sequence.size());
    for (std::uint32_t t = term_lo; t < hi; ++t) {
      SplitMix64 sm(sim::injection_counter_state(config.seed, now, t));
      if (!sim::injection_bernoulli(sm, packet_rate)) continue;
      Xoshiro256 dest_rng(sm.next());
      const auto dst = traffic.destination(t, dest_rng);
      if (!dst.has_value()) continue;
      inject(t, *dst, now);
    }
  }

  /// Build the packet t -> dst and queue it on t's NIC.  A dead NIC
  /// uplink is the one place a packet is dropped: it never entered the
  /// network, so there is nothing to purge or conserve.
  void inject(std::uint32_t t, std::uint32_t dst, std::uint64_t now) {
    sim::Packet packet;
    packet.id = next_packet_id++;
    packet.src_terminal = t;
    packet.dst_terminal = dst;
    packet.size_flits = config.packet_flits;
    packet.injected_cycle = now;
    packet.flow_sequence = flow_sequence[t - term_lo]++;
    ++route_lookups;
    const std::uint32_t first = routes->next_channel_from(t, t, dst);
    NBCLOS_DEBUG_CHECK(is_nic[first] != 0,
                       "first hop must leave through the source NIC");
    ++injected;
    if (!usable(first)) {
      ++dropped;
      return;
    }
    pool->push_packet(self().buffer(buf_base[first]),
                      packets.acquire(packet));
    channel_flits[self().channel(first)] += config.packet_flits;
    self().activate(first);
    flits_in_system += config.packet_flits;
    ++acq_by_cycle[now];
  }

  /// Credit-conservation audit over the arena's switch buffers:
  /// credits + occupancy + in-flight + pending returns == capacity.  Only
  /// live slots are walked: a never-activated buffer holds full credits
  /// and nothing else, and an in-flight flit's credit pinned its target.
  /// \pre credit backpressure mode.
  [[nodiscard]] bool credit_conservation_holds() const {
    NBCLOS_REQUIRE(ledger != nullptr,
                   "credit audit requires credit backpressure mode");
    audit_in_flight.assign(pool->peak_slots(), 0);
    for (const Wire& w : wires) {
      if (w.target == kEject) continue;
      NBCLOS_ASSERT(pool->slot_id(self().buffer(w.target)) == w.target_slot);
      ++audit_in_flight[w.target_slot];
    }
    bool holds = true;
    pool->for_each_live([&](std::uint32_t lb, std::uint32_t s,
                            const FlitBufferPool::BufferSlot& sl) {
      if (lb >= pool->switch_buffer_count()) return;  // NICs are uncredited
      const std::uint64_t sum = (config.buffer_flits - sl.credits_used) +
                                sl.size + audit_in_flight[s] +
                                sl.pending_returns;
      if (sum != config.buffer_flits) holds = false;
    });
    return holds;
  }

  /// The `max` smallest global ids of occupied buffers (the deadlock
  /// diagnostic sample).  Live slots iterate in allocation order, so
  /// collect, sort and truncate.
  [[nodiscard]] std::vector<std::uint32_t> occupied_buffers(
      std::size_t max) const {
    std::vector<std::uint32_t> occupied;
    pool->for_each_live([&](std::uint32_t lb, std::uint32_t,
                            const FlitBufferPool::BufferSlot& sl) {
      if (sl.size > 0) occupied.push_back(self().global_buffer(lb));
    });
    std::sort(occupied.begin(), occupied.end());
    if (occupied.size() > max) occupied.resize(max);
    return occupied;
  }

  /// Report every FIFO inside a stall episode (a blocked FIFO's
  /// blocked_since pins its slot, so the live walk sees them all) in
  /// global ids.  A body flit waits on its worm's out_alloc, exactly; a
  /// head on the first candidate of its allocation scan: next channel
  /// from the route, scan-start VC.
  void collect_blocked(std::vector<BlockedBufferReport>& out) const {
    pool->for_each_live([&](std::uint32_t lb, std::uint32_t s,
                            const FlitBufferPool::BufferSlot& sl) {
      if (sl.blocked_since_plus1 == 0) return;
      BlockedBufferReport report;
      report.buffer = self().global_buffer(lb);
      report.channel = facts->channel_of(report.buffer);
      report.occupancy = sl.size;
      report.blocked_since = sl.blocked_since_plus1 - 1;
      const std::uint32_t c = report.channel;
      if (sl.size > 0) {
        const FlitRef head = pool->front_at(s);
        if (head.flit_index > 0) {
          report.waiting_for = sl.out_alloc;
        } else if (!dst_is_terminal[c]) {
          const sim::Packet& packet = packets.at(head.packet_slot);
          const std::uint32_t nc = routes->next_channel_from(
              channel_dst[c], packet.src_terminal, packet.dst_terminal);
          const std::uint32_t from_vc = report.buffer - buf_base[c];
          report.waiting_for = buf_base[nc] +
                               (is_nic[nc] ? 0u : from_vc % config.vcs);
        }
      }
      out.push_back(report);
    });
  }

  Engine& self() { return static_cast<Engine&>(*this); }
  const Engine& self() const { return static_cast<const Engine&>(*this); }

  std::shared_ptr<const ChannelFacts> facts;
  // The per-channel columns of *facts the flit moves read, one load away.
  const std::uint32_t* buf_base;
  const std::uint8_t* is_nic;
  const std::uint32_t* channel_dst;
  const std::uint8_t* dst_is_terminal;
  const routing::NextHop* routes = nullptr;
  FlowConfig config;
  std::uint32_t head_reservation = 1;

  // Arena: every per-buffer field (out_alloc -> GLOBAL buffer id, claim
  // -> packet slot, blocked_since, credits, stop bit) lives in the pool's
  // sparse slots, so resident bytes track the live flit front.
  std::optional<FlitBufferPool> pool;
  PacketPool packets;
  std::unique_ptr<CreditLedger> ledger;  ///< credit mode only
  std::unique_ptr<OnOffSignal> onoff;    ///< on/off mode only
  std::optional<fault::DegradedView> degraded;  ///< private copy
  std::size_t next_fault = 0;

  // Per owned channel, indexed by channel(c).
  std::vector<std::uint32_t> next_vc;        ///< VC round-robin start
  std::vector<std::uint32_t> channel_flits;  ///< queued flits
  /// Owned channels this arena also executes that hold flits, swept in
  /// ascending id (bit-reproducibility).
  ActiveSet active;
  std::vector<Wire> wires;               ///< flits landing next cycle
  std::vector<std::uint64_t> link_busy;  ///< flits sent, by busy(c)

  // Statistics.  The integer ones merge exactly across shards; the
  // Welford streams serve the one-shard legacy injection mode only.
  std::uint32_t term_lo = 0;  ///< first terminal this arena injects at
  std::vector<std::uint64_t> flow_sequence;  ///< per injecting terminal
  /// Per cycle: packets injected, tails ejected — the live-packet peak
  /// replays from them in cycle order, summed over arenas.
  std::vector<std::uint32_t> acq_by_cycle;
  std::vector<std::uint32_t> rel_by_cycle;
  std::uint64_t next_packet_id = 0;
  std::uint64_t injected = 0;
  std::uint64_t dropped = 0;  ///< packets refused at a dead NIC uplink
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_measured_flits = 0;
  std::vector<std::uint64_t> delivered_per_source;  ///< all terminals
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_count = 0;
  RunningStats latency_stats;
  QuantileHistogram latency_hist;
  std::uint64_t credit_stall_cycles = 0;
  std::uint64_t vc_stall_cycles = 0;
  std::uint64_t stall_duration_sum = 0;
  std::uint64_t stall_episode_count = 0;
  RunningStats stall_stats;  ///< per-episode durations
  QuantileHistogram stall_hist;
  /// Stall-latency histogram handle, resolved once (the registry lookup
  /// never runs on the hot path).
  obs::HistogramMetric* stall_metric = nullptr;
  /// FIFOs inside a stall episode — the recorder's blocked-head series;
  /// partitions additively across shards (each buffer has one owner).
  std::uint64_t blocked_heads = 0;
  std::vector<std::uint32_t> peak_per_vc;  ///< per VC index, switch FIFOs
  /// Negative in a shard that ejects packets injected elsewhere.
  std::int64_t flits_in_system = 0;
  std::uint64_t flits_moved_epoch = 0;  ///< watchdog progress
  std::uint64_t route_lookups = 0;
  /// Conservation-audit scratch, indexed by pool slot id; hoisted so
  /// epoch audits do not allocate.
  mutable std::vector<std::uint64_t> audit_in_flight;
};

}  // namespace nbclos::flow::detail
