/// \file kernel.hpp
/// \brief The packet-move kernel: the rules of the packet model, run by
///        every arena of the one packet-engine driver (sharded.hpp).
///
/// A kernel instance owns one arena: per owned channel the packet in
/// flight, the output-queue ring (a slice of one switch pool, or a
/// growable NIC ring), that queue's round-robin arbiter and its link-busy
/// tally, the `flying` / `sendable` active sets, and every run statistic.
/// Its steps are the whole packet model:
///   * `apply_due_faults` / `purge_dead` — liveness changes, and the drop
///     of every packet queued or in flight on a dead channel;
///   * `arrive` — deliver landed packets at terminals, route the rest and
///     hand each to `propose` as a candidate for its next channel;
///   * `bucket` / `admit` — per target queue, round-robin admission of
///     the candidates while the queue has room; losers stall
///     (backpressure);
///   * `transmit` — an idle live channel starts sending its head packet;
///   * `inject` / `inject_counter` — queue a new packet on its NIC;
///   * `sample` — the six kInvariant flight-recorder series.
///
/// The arenas differ only in compile-time hooks.  An engine derives
/// from PacketKernel<Engine> and supplies:
///   channel(c)          global channel id -> arena index
///   global(li)          arena index -> global channel id
///   route(at, packet)   the next channel of `packet` at vertex `at`
///   measured_latency(l) a measured packet was delivered after l cycles
/// At one shard the arena maps by identity, routes through a
/// RoutingOracle and keeps the Welford latency stream the legacy
/// injection mode reports; under a cut each shard maps through
/// ShardPlan's local ids and routes through a pure routing::NextHop.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/sim/config.hpp"
#include "nbclos/sim/injection_rng.hpp"
#include "nbclos/sim/packet.hpp"
#include "nbclos/sim/traffic.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/active_set.hpp"
#include "nbclos/util/prng.hpp"
#include "nbclos/util/stats.hpp"

namespace nbclos::sim::detail {

/// Check the inputs both packet engines share (a finalized network, a
/// traffic pattern over its terminals [0, T), a valid config, a degraded
/// view over the same network whenever faults are scheduled) and return
/// the fault schedule in cycle order.
[[nodiscard]] std::vector<fault::FaultEvent> checked_fault_schedule(
    const Network& net, const TrafficPattern& traffic, const SimConfig& config,
    const fault::DegradedView* degraded,
    std::vector<fault::FaultEvent> fault_events);

/// The six flight-recorder series every packet engine samples:
/// sim.queue.depth_sum, sim.active.{flying,sendable}, sim.link.busy_flits
/// and sim.packets.{injected,delivered}.  Each partitions additively
/// across shards, so the merged series are bit-identical at any shard
/// count (kInvariant).
struct PacketSeries {
  std::array<obs::FlightRecorder::SeriesId, 6> ids{};

  /// Configure `recorder` from `config` with one ring slot per shard and
  /// register the six series, in the order above.
  [[nodiscard]] static PacketSeries arm(obs::FlightRecorder& recorder,
                                        const SimConfig& config,
                                        std::uint32_t shards);
};

/// The packet occupying a channel, if any (a channel carries one packet
/// at a time; `arrival_cycle` is when its last flit lands at the
/// channel's destination vertex).
struct InFlight {
  Packet packet;
  std::uint64_t arrival_cycle = 0;
  bool valid = false;
};

/// Initial capacity of a NIC ring; grows by doubling, so the capacity is
/// always a power of two and wrap-around is a mask.
inline constexpr std::uint32_t kNicRingInitialCapacity = 16;

template <class Engine>
struct PacketKernel {
  PacketKernel(const Network& network, const TrafficPattern& pattern,
               const SimConfig& sim_config)
      : net(&network), traffic(&pattern), config(sim_config),
        packet_rate(sim_config.injection_rate /
                    static_cast<double>(sim_config.packet_size)),
        injection_threshold(sim::injection_threshold(packet_rate)),
        latency_hist(sim_config.warmup_cycles + sim_config.measure_cycles) {}

  /// Build the arena on the calling thread (first touch) for `count`
  /// owned channels and injection at terminals [lo, hi).  Switch queues
  /// are slices of one pool, queue_capacity rounded up to a power of two
  /// (wrap-around is a mask); a NIC queue (source vertex a terminal) is an
  /// unbounded ring, so offered load is never silently dropped.
  void carve(std::uint32_t count, std::uint32_t lo, std::uint32_t hi) {
    const auto slice = std::bit_ceil(config.queue_capacity);
    switch_slice_mask = slice - 1;
    flight.resize(count);
    q_head.assign(count, 0);
    q_size.assign(count, 0);
    pool_base.assign(count, 0);
    queue_depth.assign(count, 0);
    rr_last_winner.assign(count, 0);
    channel_dst.assign(count, 0);
    dst_is_terminal.assign(count, 0);
    is_nic.assign(count, 0);
    link_busy.assign(count, 0);
    candidates.resize(count);
    flying = ActiveSet(count);
    sendable = ActiveSet(count);
    std::uint32_t switch_channels = 0;
    std::uint32_t nic_channels = 0;
    for (std::uint32_t li = 0; li < count; ++li) {
      const std::uint32_t c = self().global(li);
      channel_dst[li] = net->channel_dst(c);
      dst_is_terminal[li] =
          net->vertex(channel_dst[li]).kind == VertexKind::kTerminal;
      if (net->vertex(net->channel_src(c)).kind == VertexKind::kTerminal) {
        is_nic[li] = 1;
        pool_base[li] = nic_channels++;
      } else {
        pool_base[li] = switch_channels * slice;
        ++switch_channels;
      }
    }
    switch_pool.resize(std::size_t{switch_channels} * slice);
    nic_rings.resize(nic_channels);
    switch_channel_count = switch_channels;
    term_lo = lo;
    flow_sequence.assign(hi - lo, 0);
    delivered_per_source.assign(traffic->terminal_count(), 0);
  }

  [[nodiscard]] bool usable(std::uint32_t c) const {
    return degraded == nullptr || degraded->channel_alive(c);
  }

  // --- queues: one FIFO ring per owned channel, by arena index ---------
  // `queue_depth` mirrors the size of switch queues only (the
  // oracle-visible SimView; NIC queues read as 0).

  void push(std::uint32_t li, const Packet& packet) {
    if (is_nic[li]) {
      auto& ring = nic_rings[pool_base[li]];
      if (q_size[li] == ring.size()) {
        // Full (or first use): double and relinearize so head lands at 0.
        std::vector<Packet> bigger(ring.empty() ? kNicRingInitialCapacity
                                                : ring.size() * 2);
        for (std::uint32_t i = 0; i < q_size[li]; ++i) {
          bigger[i] = ring[(q_head[li] + i) & (ring.size() - 1)];
        }
        ring = std::move(bigger);
        q_head[li] = 0;
      }
      ring[(q_head[li] + q_size[li]) & (ring.size() - 1)] = packet;
    } else {
      switch_pool[pool_base[li] +
                  ((q_head[li] + q_size[li]) & switch_slice_mask)] = packet;
      ++queue_depth[li];
      ++switch_depth_sum;
    }
    ++q_size[li];
    sendable.insert(li);
  }

  [[nodiscard]] Packet pop(std::uint32_t li) {
    NBCLOS_ASSERT(q_size[li] > 0);
    Packet packet;
    if (is_nic[li]) {
      auto& ring = nic_rings[pool_base[li]];
      packet = ring[q_head[li]];
      q_head[li] =
          (q_head[li] + 1) & (static_cast<std::uint32_t>(ring.size()) - 1);
    } else {
      packet = switch_pool[pool_base[li] + q_head[li]];
      q_head[li] = (q_head[li] + 1) & switch_slice_mask;
      --queue_depth[li];
      --switch_depth_sum;
    }
    --q_size[li];
    return packet;
  }

  void clear(std::uint32_t li) {
    if (!is_nic[li]) {
      switch_depth_sum -= queue_depth[li];
      queue_depth[li] = 0;
    }
    q_size[li] = 0;
    q_head[li] = 0;
  }

  // --- the packet model ------------------------------------------------

  /// Deliver `packet` at its destination terminal.  Throughput counts
  /// every delivery in the measurement window (at saturation that drains
  /// warmup backlog); latency only packets injected after warmup.
  void deliver(const Packet& packet, std::uint64_t now, bool measuring) {
    ++delivered_packets;
    if (!measuring) return;
    delivered_measured_flits += packet.size_flits;
    delivered_per_source[packet.src_terminal] += packet.size_flits;
    if (packet.injected_cycle >= config.warmup_cycles) {
      const std::uint64_t latency = now - packet.injected_cycle;
      self().measured_latency(latency);
      latency_sum += latency;
      ++latency_count;
      latency_hist.add(latency);
    }
  }

  /// Apply every scheduled fault due by `now` to `*degraded`, then purge
  /// the packets stranded on channels that died (a recovered channel
  /// simply starts accepting traffic again).
  void apply_due_faults(const std::vector<fault::FaultEvent>& events,
                        std::uint64_t now) {
    if (degraded == nullptr) return;
    bool applied = false;
    while (next_fault < events.size() && events[next_fault].cycle <= now) {
      degraded->apply(events[next_fault++]);
      applied = true;
    }
    if (applied) purge_dead();
  }

  /// Drop every packet in flight or queued on a dead channel.  Each sits
  /// on a channel in `flying` or `sendable`, so the purge touches only
  /// active channels; the invalidated entries leave the sets at their
  /// next sweep.
  void purge_dead() {
    flying.for_each([&](std::uint32_t li) {
      if (flight[li].valid && !usable(self().global(li))) {
        ++dropped;
        flight[li].valid = false;
      }
    });
    sendable.for_each([&](std::uint32_t li) {
      if (q_size[li] > 0 && !usable(self().global(li))) {
        dropped += q_size[li];
        clear(li);
      }
    });
  }

  /// Sweep the flying channels in ascending id (a full scan's order, so
  /// routes are consulted in the same order at any shard count).  A packet
  /// that landed at a terminal is delivered; at a switch it is routed
  /// (again on every retry) and handed to `propose(next, li, packet)` as a
  /// candidate for global channel `next`, keeping its flight until `admit`
  /// settles it.  No live route (kNoRoute, or a dead channel) drops it.
  template <class Propose>
  void arrive(std::uint64_t now, bool measuring, Propose&& propose) {
    flying.sweep([&](std::uint32_t li) {
      InFlight& fl = flight[li];
      if (!fl.valid) return false;  // purged by a fault since the last sweep
      if (fl.arrival_cycle > now) return true;
      if (dst_is_terminal[li]) {
        NBCLOS_ASSERT(channel_dst[li] == fl.packet.dst_terminal);
        deliver(fl.packet, now, measuring);
        fl.valid = false;
        return false;
      }
      const std::uint32_t at = channel_dst[li];
      const std::uint32_t next = self().route(at, fl.packet);
      if (next == fault::kNoRoute || !usable(next)) {
        ++dropped;
        fl.valid = false;
        return false;
      }
      NBCLOS_ASSERT(net->channel_src(next) == at);
      propose(next, li, fl.packet);
      return false;
    });
  }

  /// Queue `candidate` for global channel `target`.  Candidates must be
  /// bucketed in ascending order of their proposing channel.
  void bucket(std::uint32_t target, std::uint32_t candidate) {
    auto& waiting = candidates[self().channel(target)];
    if (waiting.empty()) targets.push_back(target);
    waiting.push_back(candidate);
  }

  /// Per target queue, in first-bucketed order, round-robin admission of
  /// its candidates: service starts after the proposing channel
  /// `from(candidate)` (global id) that won last (a fixed order would
  /// starve all but the lowest-id input).  While the queue has room,
  /// `win(candidate)` releases the candidate and returns its packet,
  /// which enters the queue; the rest get `lose(candidate)` and stall.
  /// Empties every bucket.
  template <class From, class Win, class Lose>
  void admit(From&& from, Win&& win, Lose&& lose) {
    for (const std::uint32_t target : targets) {
      const std::uint32_t li = self().channel(target);
      auto& waiting = candidates[li];
      const std::size_t n = waiting.size();
      std::size_t start = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (from(waiting[k]) > rr_last_winner[li]) {
          start = k;
          break;
        }
      }
      std::size_t i = 0;
      for (; i < n && queue_depth[li] < config.queue_capacity; ++i) {
        const std::uint32_t candidate = waiting[(start + i) % n];
        push(li, win(candidate));
        rr_last_winner[li] = from(candidate);
      }
      for (; i < n; ++i) lose(waiting[(start + i) % n]);
      waiting.clear();
    }
    targets.clear();
  }

  /// Sweep the channels with queued packets in ascending id: an idle
  /// live channel pops its head packet and is busy for size_flits cycles
  /// (dead channels do not transmit).
  void transmit(std::uint64_t now) {
    sendable.sweep([&](std::uint32_t li) {
      if (q_size[li] == 0) return false;  // fault-purged since the last sweep
      InFlight& fl = flight[li];
      if (!fl.valid && usable(self().global(li))) {
        fl.packet = pop(li);
        fl.valid = true;
        fl.arrival_cycle = now + fl.packet.size_flits;
        busy_flits += fl.packet.size_flits;
        link_busy[li] += fl.packet.size_flits;
        flying.insert(li);
      }
      return q_size[li] != 0;
    });
  }

  /// Build the packet t -> dst and queue it on t's NIC.  A dead (or
  /// unroutable) NIC uplink drops the packet: offered, but lost.
  void inject(std::uint32_t t, std::uint32_t dst, std::uint64_t now) {
    Packet packet;
    packet.id = next_packet_id++;
    packet.src_terminal = t;
    packet.dst_terminal = dst;
    packet.size_flits = config.packet_size;
    packet.injected_cycle = now;
    packet.flow_sequence = flow_sequence[t - term_lo]++;
    const std::uint32_t first = self().route(t, packet);
    ++injected;
    if (first == fault::kNoRoute || !usable(first)) {
      ++dropped;
      return;
    }
    push(self().channel(first), packet);
  }

  /// Counter-RNG injection at this arena's terminals: every draw is a
  /// pure function of (seed, cycle, terminal), so how the terminals are
  /// split across arenas cannot change the stream.
  void inject_counter(std::uint64_t now) {
    const auto hi = term_lo + static_cast<std::uint32_t>(flow_sequence.size());
    std::uint64_t state = injection_counter_state(config.seed, now, term_lo);
    for (std::uint32_t t = term_lo; t < hi;
         ++t, state += kInjectionTerminalStride) {
      SplitMix64 sm(state);
      if (!injection_bernoulli(sm, injection_threshold)) continue;
      Xoshiro256 dest_rng(sm.next());
      const auto dst = traffic->destination(t, dest_rng);
      if (dst.has_value()) inject(t, *dst, now);
    }
  }

  /// Append one sample of the six PacketSeries at cycle `now` into ring
  /// slot `slot`.
  void sample(obs::FlightRecorder& recorder, const PacketSeries& series,
              std::uint32_t slot, std::uint64_t now) const {
    const std::uint64_t values[] = {switch_depth_sum, flying.size(),
                                    sendable.size(),  busy_flits,
                                    injected,         delivered_packets};
    for (std::size_t i = 0; i < series.ids.size(); ++i) {
      recorder.record(series.ids[i], slot, now,
                      static_cast<std::int64_t>(values[i]));
    }
  }

  /// Add this arena's packet and busy-flit counts to the obs registry
  /// (counters add up, so one call per arena totals a sharded run).
  void flush_counts() const {
    auto& m = obs::metrics();
    m.counter("sim.packets.injected").add(injected);
    m.counter("sim.packets.delivered").add(delivered_packets);
    m.counter("sim.packets.dropped").add(dropped);
    m.counter("sim.link.busy_flit_cycles").add(busy_flits);
  }

  /// Packets still in the arena: in flight or queued.
  [[nodiscard]] std::uint64_t remaining() const {
    std::uint64_t packets = 0;
    for (const InFlight& fl : flight) packets += fl.valid ? 1 : 0;
    for (const std::uint32_t q : q_size) packets += q;
    return packets;
  }

  /// Resident bytes of the arena: queue pools, flight registers,
  /// per-channel state and tallies, and the per-terminal tallies.
  [[nodiscard]] std::size_t arena_bytes() const {
    std::size_t bytes = switch_pool.capacity() * sizeof(Packet);
    for (const auto& ring : nic_rings) {
      bytes += ring.capacity() * sizeof(Packet);
    }
    bytes += nic_rings.capacity() * sizeof(std::vector<Packet>);
    bytes += flight.capacity() * sizeof(InFlight);
    bytes += (q_head.capacity() + q_size.capacity() + pool_base.capacity() +
              queue_depth.capacity() + rr_last_winner.capacity() +
              channel_dst.capacity()) *
             sizeof(std::uint32_t);
    bytes += flying.bytes() + sendable.bytes();
    bytes += dst_is_terminal.capacity() + is_nic.capacity();
    bytes += (delivered_per_source.capacity() + flow_sequence.capacity() +
              link_busy.capacity()) *
             sizeof(std::uint64_t);
    return bytes;
  }

  Engine& self() { return static_cast<Engine&>(*this); }

  const Network* net;
  const TrafficPattern* traffic;
  SimConfig config;
  double packet_rate = 0.0;  ///< injection_rate / packet_size, hoisted
  std::uint64_t injection_threshold = 0;  ///< of packet_rate, for counters
  /// Liveness mask the arena reads and applies faults to (null when
  /// pristine): PacketSim's caller's view, else a private copy.
  fault::DegradedView* degraded = nullptr;
  std::size_t next_fault = 0;

  // Arena, per owned channel by arena index.
  std::vector<InFlight> flight;
  std::vector<std::uint32_t> q_head;  ///< ring head
  std::vector<std::uint32_t> q_size;  ///< ring occupancy
  /// Switch channel: element offset into switch_pool (index * slice);
  /// NIC channel: index into nic_rings.
  std::vector<std::uint32_t> pool_base;
  std::vector<std::uint32_t> queue_depth;     ///< switch queue sizes
  std::vector<std::uint32_t> rr_last_winner;  ///< global id of last winner
  std::vector<std::uint32_t> channel_dst;     ///< destination vertex
  std::vector<std::uint8_t> dst_is_terminal;
  std::vector<std::uint8_t> is_nic;  ///< source vertex is a terminal
  std::vector<std::uint64_t> link_busy;  ///< flits sent, whole run
  /// Per target: its admission candidates, ascending proposing channel;
  /// `targets` lists the global ids of targets with candidates.
  std::vector<std::vector<std::uint32_t>> candidates;
  std::vector<std::uint32_t> targets;
  std::uint32_t switch_slice_mask = 0;  ///< slice size - 1
  std::vector<Packet> switch_pool;      ///< all switch queues, contiguous
  std::vector<std::vector<Packet>> nic_rings;  ///< growable NIC rings
  // Active channels, swept in ascending id (a full channel scan's order):
  // `flying` holds those with a valid in-flight packet, `sendable` those
  // with a non-empty queue, each plus any a fault purged since its sweep.
  ActiveSet flying;
  ActiveSet sendable;
  std::uint64_t switch_depth_sum = 0;  ///< running sum over switch queues
  std::uint64_t switch_channel_count = 0;

  // Statistics, all exact integers, so they merge across shards.
  std::uint32_t term_lo = 0;  ///< first terminal this arena injects at
  std::vector<std::uint64_t> flow_sequence;  ///< per injecting terminal
  std::uint64_t next_packet_id = 0;
  std::uint64_t injected = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_measured_flits = 0;
  std::vector<std::uint64_t> delivered_per_source;  ///< all terminals
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_count = 0;
  QuantileHistogram latency_hist;  ///< streaming p50/p99/p999
  std::uint64_t busy_flits = 0;    ///< flits sent on owned channels
};

}  // namespace nbclos::sim::detail
