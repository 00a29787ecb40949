/// \file kernel.hpp
/// \brief The flit-move kernel: the rules of one flit crossing one
///        channel, run by every shard of the flow-engine driver
///        (sharded.hpp).
///
/// A switch buffer has two sides.  The READ side (flits, the worm's
/// out_alloc, the stall episode) sits with the channel's destination
/// vertex, which decides every send on the channel, together with the
/// channel's VC arbiter, activity bit and link-busy tally.  The WRITE
/// side (claim, credit counters, the on/off bit senders read) sits with
/// the source vertex.  Both share one pool slot unless a shard cut
/// separates the channel's ends.  A NIC queue has only a read side.
///
/// A kernel instance owns one arena: the slots of the sides it holds,
/// the packets its flits name, its credit or on/off state, the wires it
/// sent this cycle, and the run statistics.  Its steps are the whole
/// flit model:
///   * `transmit` — one pass over a channel: VC round-robin from the
///     arbiter's start, and for the first VC that can move, `downstream`
///     (head routing, first-free VC claim scan, backpressure admission;
///     body flits follow the worm's out_alloc), `send` (claim, credit
///     consume, wire) and `pop` (credit return or on/off dirty mark,
///     out_alloc, end of the stall episode, arbiter advance).  A VC
///     that cannot move opens or extends a stall episode;
///   * `land` — last cycle's wires push into their FIFOs or `eject`;
///   * `inject` — build a packet and queue it on its source NIC;
///   * `latch` — the end-of-cycle on/off bits;
///   * `receive` — under a cut, one `Mail` another shard posted last
///     cycle: what a move changed on this shard's side of a buffer.
///
/// Shards differ only in how a global id reaches the arena.  A shard
/// derives from FlitKernel<Shard> and supplies, at compile time:
///   read_side(b), write_side(b)  global buffer id -> arena index
///   channel(c)              channel -> index among those it reads
///   global_buffer(lb), global_channel(li)  the inverses
///   kCut                    whether it is a shard of a cut, and then
///   index, reader(c), writer(c), post(to, now, mail),
///   for_each_unreceived(fn), other_side(b, c)  (see sharded.cpp)
/// The one-shard arena maps by identity.
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

  [[nodiscard]] std::uint32_t buffer_count() const {
    return switch_buffers + static_cast<std::uint32_t>(channel_of_nic.size());
  }
  /// The channel owning global buffer `b`.
  [[nodiscard]] std::uint32_t channel_of(std::uint32_t b) const {
    if (b >= switch_buffers) return channel_of_nic[b - switch_buffers];
    return channel_of_switch[vcs == 1 ? b : b / vcs];
  }
};

/// A flit this arena sent this cycle, landing next cycle.  At most one
/// wire per channel per cycle, and at most one targets any buffer (the
/// claim serializes writers).
struct Wire {
  std::uint32_t channel = 0;
  std::uint32_t target = 0;  ///< global downstream buffer id, or kEject
  /// The pool slot of target's write side here (kNoSlot for kEject): the
  /// claim pins it until the tail lands.
  std::uint32_t target_slot = 0;
  FlitRef flit;  ///< packet_slot names this arena's PacketPool
  /// The target's read side is in another shard, which lands the flit
  /// from its mail; here the wire only frees the claim at the tail.
  bool mailed = false;
};

/// What crosses a shard cut: the effect of a move on the far side of a
/// buffer, posted in one cycle and received before the next cycle's
/// transmissions (see sharded.hpp for why that is soon enough).
struct Mail {
  enum Kind : std::uint8_t { kFlit, kCredit, kOnOff, kInject };
  std::uint32_t buffer = 0;  ///< global buffer id it acts on
  std::uint32_t value = 0;   ///< kFlit: the flit index; kOnOff: the bit
  Kind kind = kFlit;
  sim::Packet packet;  ///< kFlit heads and kInject: the packet
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
  /// finite FIFO sides and `nic_bufs` NIC queues, arbiters and link-busy
  /// tallies for the `channels` channels it reads, injection at
  /// terminals [lo, hi) of `terminals`, and a private copy of `faults`.
  void init_arena(std::uint32_t switch_bufs, std::uint32_t nic_bufs,
                  std::uint32_t channels, std::uint32_t terminals,
                  std::uint32_t lo, std::uint32_t hi,
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
    link_busy.assign(channels, 0);
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
    stall_duration_sum += duration;
    ++stall_episode_count;
    stall_hist.add(duration);
    stall_metric->record(duration);
  }

  /// Where `flit`, the front of VC `vc`, goes when it crosses channel
  /// c.  A head routes from dst(c) and takes the first VC of the next
  /// channel, starting at its own, that no packet claims and whose
  /// backpressure admits the head reservation (binding the buffer's
  /// write side).  A body flit follows the worm's `out_alloc`; under
  /// wormhole it re-checks backpressure every cycle, under VCT the head
  /// reserved the packet.  A dead next channel blocks the head in place
  /// (fail-stop), booked as a credit stall.  Returns false when the VC
  /// stalls, with *credit_block telling why.  Every write side it reads
  /// is the arena's own: the next channel leaves dst(c), where this
  /// arena reads c.
  bool downstream(std::uint32_t c, std::uint32_t vc, FlitRef flit,
                  std::uint32_t out_alloc, Hop* hop, bool* credit_block) {
    if (dst_is_terminal[c]) return true;  // the sink always accepts
    if (flit.flit_index > 0) {
      hop->target = out_alloc;
      NBCLOS_ASSERT(hop->target != kNone);
      hop->slot = pool->slot_id(self().write_side(hop->target));
      NBCLOS_ASSERT(hop->slot != kNoSlot);  // the worm's claim pins it
      if (config.switching == Switching::kWormhole &&
          !backpressure_admits(*pool, hop->slot, 1, ledger != nullptr)) {
        *credit_block = true;
        return false;
      }
      return true;
    }
    NBCLOS_ASSERT(out_alloc == kNone);
    ++route_lookups;
    const sim::Packet& packet = packets.at(flit.packet_slot);
    const std::uint32_t nc = routes->next_channel_from(
        channel_dst[c], packet.src_terminal, packet.dst_terminal);
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
      const std::uint32_t s = pool->slot_id(self().write_side(nb));
      if (s != kNoSlot && pool->slot(s).claim != kNone) continue;
      if (!backpressure_admits(*pool, s, head_reservation, ledger != nullptr)) {
        saw_credit_block = true;
        continue;
      }
      hop->target = nb;
      hop->slot = s != kNoSlot ? s : pool->bind(self().write_side(nb));
      return true;
    }
    *credit_block = saw_credit_block;
    return false;
  }

  /// The write side of a moving flit: a head claims its downstream VC
  /// for its packet, the flit consumes a downstream credit, and it goes
  /// on channel c's wire.  A flit whose target is read in another shard
  /// is mailed there too, a head with its packet; a tail takes the last
  /// use of this arena's packet copy with it.
  void send(std::uint32_t c, const Hop& hop, FlitRef flit,
            std::uint64_t now) {
    bool mailed = false;
    if (hop.target != kEject) {
      FlitBufferPool::BufferSlot& t = pool->slot(hop.slot);
      if (flit.flit_index == 0) t.claim = flit.packet_slot;
      NBCLOS_ASSERT(t.claim == flit.packet_slot);
      if (ledger != nullptr) ledger->consume_at(hop.slot);
      if constexpr (Engine::kCut) {
        const std::uint32_t reader =
            self().reader(facts->channel_of(hop.target));
        if (reader != self().index) {
          Mail mail{hop.target, flit.flit_index, Mail::kFlit, {}};
          if (flit.flit_index == 0) mail.packet = packets.at(flit.packet_slot);
          self().post(reader, now, mail);
          if (flit.flit_index + 1 == config.packet_flits) {
            packets.release(flit.packet_slot);
          }
          mailed = true;
        }
      }
    }
    wires.push_back(Wire{c, hop.target, hop.slot, flit, mailed});
    ++link_busy[self().channel(c)];
    ++flits_moved_epoch;
  }

  /// The read side of a moving flit: pop VC `vc` of channel c (pool slot
  /// `s`), return the switch buffer's credit to its writer (or mark its
  /// on/off bit dirty), record a head's downstream buffer `out_alloc` as
  /// the worm's and clear it at the tail, close the FIFO's stall
  /// episode, recycle a drained slot, and advance the arbiter past `vc`.
  void pop(std::uint32_t c, std::uint32_t vc, std::uint32_t s,
           std::uint32_t out_alloc, std::uint64_t now) {
    const FlitRef flit = pool->pop_at(s);
    const std::uint32_t li = self().channel(c);
    --channel_flits[li];
    if (!is_nic[c]) {
      if (ledger != nullptr) return_credit(c, buf_base[c] + vc, s, now);
      if (onoff != nullptr) onoff->mark_dirty_at(s);
    }
    FlitBufferPool::BufferSlot& sl = pool->slot(s);
    if (flit.flit_index == 0) sl.out_alloc = out_alloc;
    if (flit.flit_index + 1 == config.packet_flits) sl.out_alloc = kNone;
    note_unblocked(s, now);
    pool->maybe_release_at(s);  // a pending return or claim keeps it
    next_vc[li] = detail::next_vc(vc, is_nic[c] ? 1u : config.vcs);
  }

  /// Schedule the credit of buffer b of channel c (read side on slot
  /// `s`) in its writer's ledger: here, or by mail.
  void return_credit(std::uint32_t c, std::uint32_t b, std::uint32_t s,
                     std::uint64_t now) {
    if constexpr (Engine::kCut) {
      if (self().writer(c) != self().index) {
        self().post(self().writer(c), now, Mail{b, 0, Mail::kCredit, {}});
        return;
      }
    }
    ledger->schedule_return_at(s, now);
  }

  /// One pass over channel c, which this arena reads: the first VC from
  /// the arbiter's start that can move sends its front flit and pops it;
  /// each VC before it that holds a flit stalls.  A dead channel moves
  /// nothing (its flits wait in place).  Returns whether a flit moved.
  bool transmit(std::uint32_t c, std::uint64_t now) {
    if (!usable(c)) return false;
    const std::uint32_t vc_count = is_nic[c] ? 1u : config.vcs;
    const std::uint32_t base = buf_base[c];
    std::uint32_t vc = next_vc[self().channel(c)];
    for (std::uint32_t k = 0; k < vc_count;
         ++k, vc = detail::next_vc(vc, vc_count)) {
      const std::uint32_t s = pool->slot_id(self().read_side(base + vc));
      if (s == kNoSlot || pool->slot(s).size == 0) continue;
      const FlitRef flit = pool->front_at(s);
      Hop hop;
      bool credit_block = false;
      if (!downstream(c, vc, flit, pool->slot(s).out_alloc, &hop,
                      &credit_block)) {
        note_blocked(s, credit_block, now);
        continue;  // this VC stalls; the next may still use the channel
      }
      send(c, hop, flit, now);
      pop(c, vc, s, hop.target, now);
      return true;
    }
    return false;
  }

  /// Land last cycle's wires: push into the target FIFO or eject; a
  /// mailed wire only frees its claim at the tail, as its reader lands
  /// the flit.  The wires are in ascending channel order — the sweeps
  /// are ascending and a channel moves one flit per cycle — so the
  /// latency accumulators see deliveries in a fixed order.
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
          pool->slot_id(self().write_side(w.target)) == w.target_slot,
          "a wire's target slot must stay bound until landing");
      if (!w.mailed) {
        push(w.target, w.target_slot, w.flit);
        continue;
      }
      free_claim(w.target_slot, w.flit);
      pool->maybe_release_at(w.target_slot);
    }
    wires.clear();
  }

  /// Push `flit` into the FIFO of buffer b, whose read side is on pool
  /// slot `s`, and activate its channel.
  void push(std::uint32_t b, std::uint32_t s, FlitRef flit) {
    pool->push_at(s, flit);
    const std::uint32_t oc = facts->channel_of(b);
    const std::uint32_t li = self().channel(oc);
    ++channel_flits[li];
    active.insert(li);
    if (onoff != nullptr) onoff->mark_dirty_at(s);
    const std::uint32_t vc = b - buf_base[oc];
    peak_per_vc[vc] = std::max(peak_per_vc[vc], pool->slot(s).size);
    free_claim(s, flit);
  }

  /// A tail landed: the VC on slot `s` is whole again and accepts a new
  /// claimant.
  void free_claim(std::uint32_t s, FlitRef flit) {
    if (flit.flit_index + 1 != config.packet_flits) return;
    FlitBufferPool::BufferSlot& sl = pool->slot(s);
    NBCLOS_ASSERT(sl.claim == flit.packet_slot);
    sl.claim = kNone;
  }

  /// Apply one mail another shard posted last cycle (`now` - 1).  A
  /// landing flit's read side keeps this arena's copy of the worm's
  /// packet in its claim: the head makes it, the body flits find it, the
  /// tail frees the claim.
  void receive(const Mail& mail, std::uint64_t now) {
    switch (mail.kind) {
      case Mail::kFlit: {
        const std::uint32_t s = pool->bind(self().read_side(mail.buffer));
        if (mail.value == 0) pool->slot(s).claim = packets.acquire(mail.packet);
        push(mail.buffer, s, FlitRef{pool->slot(s).claim, mail.value});
        return;
      }
      case Mail::kCredit: {
        const std::uint32_t s = pool->slot_id(self().write_side(mail.buffer));
        NBCLOS_ASSERT(s != kNoSlot);  // the unreturned credit pins it
        ledger->schedule_return_at(s, now - 1);
        return;
      }
      case Mail::kOnOff: {
        const std::uint32_t s = pool->bind(self().write_side(mail.buffer));
        pool->slot(s).off = static_cast<std::uint8_t>(mail.value);
        pool->maybe_release_at(s);
        return;
      }
      case Mail::kInject:
        queue(mail.buffer, mail.packet);
        return;
    }
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
        latency_sum += latency;
        ++latency_count;
        latency_hist.add(latency);
      }
    }
    if (tail) ++rel_by_cycle[now];
    if (tail) packets.release(w.flit.packet_slot);
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

  /// Build the packet t -> dst and queue it on t's NIC, by mail when
  /// the NIC channel's leaf is read in another shard.  A dead NIC uplink
  /// is the one place a packet is dropped: it never entered the network,
  /// so there is nothing to purge or conserve.
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
    flits_in_system += config.packet_flits;
    ++acq_by_cycle[now];
    if constexpr (Engine::kCut) {
      if (self().reader(first) != self().index) {
        self().post(self().reader(first), now,
                    Mail{buf_base[first], 0, Mail::kInject, packet});
        return;
      }
    }
    queue(buf_base[first], packet);
  }

  /// Queue `packet` on NIC buffer b, whose read side is here.
  void queue(std::uint32_t b, const sim::Packet& packet) {
    pool->push_packet(self().read_side(b), packets.acquire(packet));
    const std::uint32_t li = self().channel(facts->channel_of(b));
    channel_flits[li] += config.packet_flits;
    active.insert(li);
  }

  /// End of cycle: latch the on/off bits of the FIFOs whose occupancy
  /// changed, mailing each flip on a cut buffer to its writer.
  void latch(std::uint64_t now) {
    if constexpr (!Engine::kCut) {
      onoff->latch();
    } else {
      onoff->latch([&](std::uint32_t s, std::uint8_t off) {
        const std::uint32_t b = self().global_buffer(pool->slot(s).buffer);
        const std::uint32_t writer = self().writer(facts->channel_of(b));
        if (writer != self().index) {
          self().post(writer, now, Mail{b, off, Mail::kOnOff, {}});
        }
      });
    }
  }

  /// Credit-conservation audit over the switch buffers this arena
  /// writes: credits + occupancy + flits in flight + credits in flight +
  /// pending returns == capacity.  Under a cut the occupancy of a buffer
  /// read in another shard is that shard's, and the credits in flight
  /// are the unreceived kCredit mail; a FIFO read here that holds flits
  /// needs its writer's slot, which holds their credits.  Only live slots
  /// are walked: a never-activated buffer holds full credits and nothing
  /// else, and an in-flight flit's credit pinned its target.
  /// \pre credit backpressure mode.
  [[nodiscard]] bool credit_conservation_holds() const {
    NBCLOS_REQUIRE(ledger != nullptr,
                   "credit audit requires credit backpressure mode");
    audit_in_flight.assign(pool->peak_slots(), 0);
    for (const Wire& w : wires) {
      if (w.target == kEject) continue;
      NBCLOS_ASSERT(pool->slot_id(self().write_side(w.target)) ==
                    w.target_slot);
      ++audit_in_flight[w.target_slot];
    }
    bool holds = true;
    if constexpr (Engine::kCut) {
      self().for_each_unreceived([&](const Mail& mail) {
        if (mail.kind != Mail::kCredit) return;
        const std::uint32_t s = pool->slot_id(self().write_side(mail.buffer));
        if (s == kNoSlot) {
          holds = false;
        } else {
          ++audit_in_flight[s];
        }
      });
    }
    pool->for_each_live([&](std::uint32_t lb, std::uint32_t s,
                            const FlitBufferPool::BufferSlot& sl) {
      if (lb >= pool->switch_buffer_count()) return;  // NICs are uncredited
      std::uint64_t occupancy = sl.size;
      if constexpr (Engine::kCut) {
        const std::uint32_t b = self().global_buffer(lb);
        const std::uint32_t c = facts->channel_of(b);
        if (self().writer(c) != self().index) {  // the read side only
          if (sl.size > 0 && self().other_side(b, c) == nullptr) {
            holds = false;
          }
          return;
        }
        if (self().reader(c) != self().index) {
          const FlitBufferPool::BufferSlot* read = self().other_side(b, c);
          occupancy = read == nullptr ? 0 : read->size;
        }
      }
      const std::uint64_t sum = (config.buffer_flits - sl.credits_used) +
                                occupancy + audit_in_flight[s] +
                                sl.pending_returns;
      if (sum != config.buffer_flits) holds = false;
    });
    return holds;
  }

  /// The `max` smallest global ids of occupied buffers (the deadlock
  /// diagnostic sample).  Under a cut a NIC queue whose packet is still
  /// in the mail counts: at one shard it already holds the packet.  Live
  /// slots iterate in allocation order, so collect, sort and truncate.
  [[nodiscard]] std::vector<std::uint32_t> occupied_buffers(
      std::size_t max) const {
    std::vector<std::uint32_t> occupied;
    pool->for_each_live([&](std::uint32_t lb, std::uint32_t,
                            const FlitBufferPool::BufferSlot& sl) {
      if (sl.size > 0) occupied.push_back(self().global_buffer(lb));
    });
    if constexpr (Engine::kCut) {
      self().for_each_unreceived([&](const Mail& mail) {
        if (mail.kind == Mail::kInject) occupied.push_back(mail.buffer);
      });
    }
    std::sort(occupied.begin(), occupied.end());
    occupied.erase(std::unique(occupied.begin(), occupied.end()),
                   occupied.end());
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
  // sparse slots, so resident bytes track the live flit front.  A slot
  // holds whichever sides of its buffer are here.
  std::optional<FlitBufferPool> pool;
  PacketPool packets;
  std::unique_ptr<CreditLedger> ledger;  ///< credit mode only
  std::unique_ptr<OnOffSignal> onoff;    ///< on/off mode only
  std::optional<fault::DegradedView> degraded;  ///< private copy
  std::size_t next_fault = 0;

  // Per channel this arena reads, indexed by channel(c).
  std::vector<std::uint32_t> next_vc;        ///< VC round-robin start
  std::vector<std::uint32_t> channel_flits;  ///< queued flits
  /// The channels that hold flits, swept in ascending id
  /// (bit-reproducibility).
  ActiveSet active;
  std::vector<std::uint64_t> link_busy;  ///< flits sent
  std::vector<Wire> wires;               ///< flits landing next cycle

  // Statistics: integer sums and histograms, so they merge exactly
  // across shards.
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
  QuantileHistogram latency_hist;
  std::uint64_t credit_stall_cycles = 0;
  std::uint64_t vc_stall_cycles = 0;
  std::uint64_t stall_duration_sum = 0;
  std::uint64_t stall_episode_count = 0;
  QuantileHistogram stall_hist;
  /// Stall-latency histogram handle, resolved once (the registry lookup
  /// never runs on the hot path).
  obs::HistogramMetric* stall_metric = nullptr;
  /// FIFOs inside a stall episode — the recorder's blocked-head series;
  /// partitions additively across shards (each FIFO has one reader).
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
