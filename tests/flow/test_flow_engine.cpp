/// \file test_flow_engine.cpp
/// \brief FlowSim behavior under *finite* buffers: configuration
///        validation, wormhole vs virtual cut-through, credit vs on/off
///        backpressure, occupancy bounds, stall telemetry, and the
///        storage substrate (FlitBufferPool / CreditLedger / OnOffSignal).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

using flow::Backpressure;
using flow::CreditLedger;
using flow::FlitBufferPool;
using flow::FlitRef;
using flow::FlowConfig;
using flow::FlowSim;
using flow::kNeverBlocked;
using flow::kNoBuffer;
using flow::OnOffSignal;
using flow::PacketPool;
using flow::Switching;

/// Small shared fabric: ftree(2+4, 3), Yuan routing, shift permutation.
class FlowEngine : public ::testing::Test {
 protected:
  FlowEngine()
      : ft(FtreeParams{2, 4, 3}),
        net(build_network(ft)),
        yuan(ft),
        cache(routing::ChannelRouteCache::materialize(net, yuan)),
        traffic(sim::TrafficPattern::permutation(
            shift_permutation(ft.leaf_count(), 1), ft.leaf_count())) {}

  FlowConfig short_config() const {
    FlowConfig config;
    config.warmup_cycles = 300;
    config.measure_cycles = 1700;
    config.seed = 4242;
    return config;
  }

  FoldedClos ft;
  Network net;
  YuanNonblockingRouting yuan;
  std::shared_ptr<const routing::ChannelRouteCache> cache;
  sim::TrafficPattern traffic;
};

// --- configuration validation -------------------------------------------

TEST_F(FlowEngine, RejectsOutOfRangeInjectionRate) {
  FlowConfig config = short_config();
  config.injection_rate = 1.5;
  EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error);
  config.injection_rate = -0.1;
  EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error);
}

TEST_F(FlowEngine, RejectsZeroFlitPackets) {
  FlowConfig config = short_config();
  config.packet_flits = 0;
  EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error);
}

TEST_F(FlowEngine, RejectsZeroVirtualChannels) {
  FlowConfig config = short_config();
  config.vcs = 0;
  EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error);
}

/// A credit must come back at least one cycle after its pop, and the
/// delay line and the FIFO rings are sized from these two values.
TEST_F(FlowEngine, RejectsCreditDelayOutsideItsRange) {
  FlowConfig config = short_config();
  for (const std::uint32_t delay :
       {0u, FlowConfig::kMaxCreditDelay + 1, 4294967295u}) {
    config.credit_delay = delay;
    EXPECT_NE(config.invalid_reason(), nullptr) << delay;
    EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error) << delay;
  }
  config.credit_delay = FlowConfig::kMaxCreditDelay;
  EXPECT_NO_THROW(FlowSim(cache, traffic, config));
}

TEST_F(FlowEngine, RejectsBufferDepthOutsideItsRange) {
  FlowConfig config = short_config();
  for (const std::uint32_t depth :
       {0u, FlowConfig::kMaxBufferFlits + 1, 4294967295u}) {
    config.buffer_flits = depth;
    EXPECT_NE(config.invalid_reason(), nullptr) << depth;
    EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error) << depth;
  }
  config.buffer_flits = FlowConfig::kMaxBufferFlits;
  EXPECT_NO_THROW(FlowSim(cache, traffic, config));
}

TEST_F(FlowEngine, RejectsTheSequentialInjectionStream) {
  FlowConfig config = short_config();
  EXPECT_TRUE(config.counter_injection);
  config.counter_injection = false;
  EXPECT_NE(config.invalid_reason(), nullptr);
  EXPECT_THROW(config.validate(), precondition_error);
  EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error);
  EXPECT_THROW(flow::ShardedFlowSim(cache, traffic, config, 2),
               precondition_error);
}

TEST_F(FlowEngine, VirtualCutThroughNeedsWholePacketBuffers) {
  FlowConfig config = short_config();
  config.switching = Switching::kVirtualCutThrough;
  config.packet_flits = 8;
  config.buffer_flits = 4;
  EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error);
  config.buffer_flits = 8;  // exactly one packet is the documented floor
  EXPECT_NO_THROW(FlowSim(cache, traffic, config));
}

TEST_F(FlowEngine, OnOffNeedsSlackBeyondTheHeadReservation) {
  FlowConfig config = short_config();
  config.backpressure = Backpressure::kOnOff;
  config.switching = Switching::kWormhole;
  config.buffer_flits = 1;  // reservation 1 + no slack -> rejected
  EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error);
  config.buffer_flits = 2;
  EXPECT_NO_THROW(FlowSim(cache, traffic, config));
}

TEST_F(FlowEngine, RejectsMismatchedTrafficPattern) {
  const auto wrong = sim::TrafficPattern::uniform(ft.leaf_count() + 1);
  EXPECT_THROW(FlowSim(cache, wrong, short_config()), precondition_error);
}

TEST_F(FlowEngine, ConfigHelpersEncodeTheSwitchingMode) {
  FlowConfig config;
  config.packet_flits = 4;
  config.buffer_flits = 8;
  config.switching = Switching::kWormhole;
  EXPECT_EQ(config.head_reservation_flits(), 1U);
  EXPECT_EQ(config.onoff_off_threshold(), 7U);
  config.switching = Switching::kVirtualCutThrough;
  EXPECT_EQ(config.head_reservation_flits(), 4U);
  EXPECT_EQ(config.onoff_off_threshold(), 4U);
  EXPECT_FALSE(config.ideal_switch_regime());
}

// --- finite-buffer behavior ---------------------------------------------

TEST_F(FlowEngine, ZeroInjectionDeliversNothing) {
  FlowConfig config = short_config();
  config.injection_rate = 0.0;
  FlowSim sim(cache, traffic, config);
  const auto result = sim.run();
  EXPECT_EQ(result.injected_packets, 0U);
  EXPECT_EQ(result.delivered_packets, 0U);
  EXPECT_EQ(result.accepted_throughput, 0.0);
  EXPECT_EQ(result.peak_buffer_flits, 0U);
  EXPECT_FALSE(result.deadlocked);
}

TEST_F(FlowEngine, WormholePeakOccupancyNeverExceedsCapacity) {
  FlowConfig config = short_config();
  config.injection_rate = 1.0;
  config.packet_flits = 4;
  config.buffer_flits = 4;
  config.switching = Switching::kWormhole;
  FlowSim sim(cache, traffic, config);
  const auto result = sim.run();
  EXPECT_LE(result.peak_buffer_flits, config.buffer_flits);
  EXPECT_GT(result.delivered_packets, 0U);
  EXPECT_FALSE(result.deadlocked);
}

TEST_F(FlowEngine, OnOffOccupancyNeverExceedsCapacity) {
  // The on/off bound is the subtle one: a 1-cycle stale stop bit plus an
  // in-flight flit can overshoot a naive threshold.  The reservation-slack
  // threshold must keep the high-water mark at or under capacity for both
  // switching modes.
  for (const auto switching :
       {Switching::kWormhole, Switching::kVirtualCutThrough}) {
    FlowConfig config = short_config();
    config.injection_rate = 1.0;
    config.packet_flits = 4;
    config.buffer_flits = 8;
    config.switching = switching;
    config.backpressure = Backpressure::kOnOff;
    FlowSim sim(cache, traffic, config);
    const auto result = sim.run();
    EXPECT_LE(result.peak_buffer_flits, config.buffer_flits);
    EXPECT_GT(result.delivered_packets, 0U);
    EXPECT_FALSE(result.deadlocked);
  }
}

TEST_F(FlowEngine, TightBuffersProduceCreditStallsUnderContention) {
  // On the contention-free permutation even 2-flit buffers pipeline at
  // full rate (see the buffer-margin tests) — stalls need *contention*.
  // Uniform traffic collides flows on the leaf downlinks, so wormhole
  // bodies must wait for credits and the stall telemetry lights up.
  FlowConfig config = short_config();
  config.injection_rate = 0.9;
  config.packet_flits = 8;
  config.buffer_flits = 2;
  const auto uniform = sim::TrafficPattern::uniform(ft.leaf_count());
  FlowSim sim(cache, uniform, config);
  const auto result = sim.run();
  EXPECT_GT(result.credit_stall_cycles, 0U);
  EXPECT_GT(result.mean_stall_cycles, 0.0);
  EXPECT_GT(result.p99_stall_cycles, 0.0);
  EXPECT_GT(result.delivered_packets, 0U);
}

TEST_F(FlowEngine, DeepBuffersOutperformShallowOnes) {
  // The whole point of the margin analysis: more buffer -> no worse
  // accepted throughput at the same offered load.
  FlowConfig shallow = short_config();
  shallow.injection_rate = 1.0;
  shallow.packet_flits = 4;
  shallow.buffer_flits = 1;
  FlowSim a(cache, traffic, shallow);
  const auto shallow_result = a.run();

  FlowConfig deep = shallow;
  deep.buffer_flits = 32;
  FlowSim b(cache, traffic, deep);
  const auto deep_result = b.run();

  EXPECT_GE(deep_result.accepted_throughput,
            shallow_result.accepted_throughput);
  EXPECT_LE(deep_result.credit_stall_cycles,
            shallow_result.credit_stall_cycles);
}

TEST_F(FlowEngine, MultipleVirtualChannelsRelieveVcStalls) {
  FlowConfig config = short_config();
  config.injection_rate = 1.0;
  config.packet_flits = 4;
  config.buffer_flits = 4;
  config.vcs = 2;
  FlowSim sim(cache, traffic, config);
  const auto result = sim.run();
  EXPECT_GT(result.delivered_packets, 0U);
  EXPECT_LE(result.peak_buffer_flits, config.buffer_flits);
  EXPECT_FALSE(result.deadlocked);
}

TEST_F(FlowEngine, CreditDelayStretchesStalls) {
  // A longer credit return wire means each buffer slot is reusable less
  // often: delivered throughput must not improve as the delay grows.
  FlowConfig fast = short_config();
  fast.injection_rate = 1.0;
  fast.packet_flits = 4;
  fast.buffer_flits = 2;
  fast.credit_delay = 1;
  FlowSim a(cache, traffic, fast);
  const auto fast_result = a.run();

  FlowConfig slow = fast;
  slow.credit_delay = 8;
  FlowSim b(cache, traffic, slow);
  const auto slow_result = b.run();

  EXPECT_LE(slow_result.accepted_throughput, fast_result.accepted_throughput);
}

TEST_F(FlowEngine, LinkBusyFlitsAccountEveryDeliveredFlit) {
  FlowConfig config = short_config();
  config.injection_rate = 0.5;
  config.packet_flits = 2;
  config.buffer_flits = 8;
  FlowSim sim(cache, traffic, config);
  const auto result = sim.run();
  std::uint64_t total = 0;
  for (const auto flits : sim.link_busy_flits()) total += flits;
  // Every delivered packet crossed >= 2 channels (NIC uplink + ejection
  // downlink), flit by flit.
  EXPECT_GE(total, result.delivered_packets * 2 * config.packet_flits);
}

TEST_F(FlowEngine, SerialRunRecordsPhaseTimers) {
  // Every cycle but the first the one-shard engine times its four phases;
  // flush_obs records one ns-per-timed-cycle mean each, and beside it
  // a "_total" counter of the exact ns over the timed cycles, whose count
  // is flow.phase.timed_cycles.  With no cut there is no mailbox to time.
  // Obs-off builds compile the timers out, so nothing is recorded there.
  auto& registry = obs::metrics();
  registry.reset();
  FlowSim sim(cache, traffic, short_config());
  (void)sim.run();
  const auto snapshot = registry.snapshot();
  const auto find = [&](const std::string& name) {
    return std::find_if(
        snapshot.begin(), snapshot.end(),
        [&](const obs::MetricSample& m) { return m.name == name; });
  };
  for (const std::string name :
       {"flow.phase.credit_returns_ns", "flow.phase.arrivals_ns",
        "flow.phase.transmissions_ns", "flow.phase.injection_ns"}) {
    const auto it = find(name);
    const auto total = find(name + "_total");
    if constexpr (obs::kEnabled) {
      ASSERT_NE(it, snapshot.end()) << name;
      EXPECT_EQ(it->kind, obs::MetricSample::Kind::kHistogram) << name;
      EXPECT_EQ(it->count, 1U) << name;  // one mean per run
      ASSERT_NE(total, snapshot.end()) << name;
      EXPECT_EQ(total->kind, obs::MetricSample::Kind::kCounter) << name;
    } else {
      EXPECT_EQ(it, snapshot.end()) << name;
      EXPECT_EQ(total, snapshot.end()) << name;
    }
  }
  if constexpr (obs::kEnabled) {
    // One shard, timed on every cycle but cycle 0.
    const auto timed = find("flow.phase.timed_cycles");
    ASSERT_NE(timed, snapshot.end());
    ASSERT_NE(find("flow.cycles"), snapshot.end());
    EXPECT_GT(timed->count, 0U);
    EXPECT_EQ(timed->count, find("flow.cycles")->count - 1);
  }
  for (const std::string name :
       {"flow.phase.mailbox_ns", "flow.sharded.barrier_wait_ns",
        "flow.phase.mailbox_ns_total",
        "flow.sharded.barrier_wait_ns_total"}) {
    EXPECT_TRUE(std::none_of(
        snapshot.begin(), snapshot.end(),
        [&](const obs::MetricSample& m) { return m.name == name; }))
        << name;
  }
}

/// NIC send queues hold one 4-byte entry per queued packet.  One flow
/// whose ejection channel is dead from the start piles every packet it
/// injects into its NIC, 16 flits each; the arena must stay within the
/// idle fabric's bytes plus the resident switch slots plus 4 bytes per
/// packet (each array at most doubled by growth).
TEST_F(FlowEngine, SaturatedNicQueuesCostBytesPerPacketNotPerFlit) {
  const std::uint32_t dst = ft.leaf_count() - 1;
  const auto one_flow = sim::TrafficPattern::permutation(
      Permutation{SDPair{LeafId{0}, LeafId{dst}}}, ft.leaf_count());
  fault::DegradedView view(net);
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    if (net.channel_dst(c) == dst) view.fail_channel(c);
  }
  FlowConfig config = short_config();
  config.packet_flits = 16;
  config.buffer_flits = 16;
  config.watchdog_epoch = 0;  // the stall is the point

  config.injection_rate = 0.0;
  const std::size_t idle_bytes =
      FlowSim(cache, one_flow, config).arena_stats().flit_arena_bytes;
  config.injection_rate = 1.0;
  FlowSim sim(cache, one_flow, config, &view);
  const auto result = sim.run();
  ASSERT_TRUE(result.saturated());
  ASSERT_EQ(result.delivered_packets, 0U);
  const std::uint64_t packets = result.injected_packets;
  ASSERT_GT(packets, 64U);

  const auto arena = sim.arena_stats();
  const std::size_t per_slot =
      sizeof(FlitBufferPool::BufferSlot) +
      std::bit_ceil(config.buffer_flits) * sizeof(FlitRef) +
      sizeof(std::uint32_t);
  const std::size_t bound =
      idle_bytes + 2 * arena.peak_slots * per_slot +
      2 * sizeof(std::uint32_t) * std::max<std::uint64_t>(16, packets);
  EXPECT_LE(arena.flit_arena_bytes, bound);
  // The bound has teeth: the flits still queued at the NIC (all but
  // those in switch FIFOs or on a wire) would overflow it at one
  // FlitRef each.
  const std::uint64_t nic_flits =
      packets * config.packet_flits -
      arena.peak_slots * config.buffer_flits - net.channel_count();
  EXPECT_GT(nic_flits * sizeof(FlitRef), bound);
}

// --- storage substrate ---------------------------------------------------

TEST(FlitBufferPool, SwitchSlicesBoundAndNicRingsGrow) {
  constexpr std::uint32_t kFlits = 3;  // flits per packet
  FlitBufferPool pool(2, 1, 2, kFlits);
  EXPECT_EQ(pool.switch_buffer_count(), 2U);
  EXPECT_EQ(pool.buffer_count(), 3U);
  EXPECT_EQ(pool.capacity(), 2U);
  EXPECT_EQ(pool.resident_slots(), 0U);  // no storage until first flit

  pool.push(0, FlitRef{7, 0});
  pool.push(0, FlitRef{7, 1});
  EXPECT_EQ(pool.resident_slots(), 1U);
  EXPECT_EQ(pool.size(0), 2U);
  EXPECT_EQ(pool.switch_flits_total(), 2U);
  EXPECT_EQ(pool.peak_switch_flits(), 2U);
  EXPECT_EQ(pool.front(0).flit_index, 0U);
  EXPECT_EQ(pool.pop(0).flit_index, 0U);
  EXPECT_EQ(pool.pop(0).flit_index, 1U);
  EXPECT_EQ(pool.switch_flits_total(), 0U);

  // The NIC ring holds one entry per packet but counts flits; it grows
  // past the switch capacity and past its initial allocation, and hands
  // out each packet's flits 0..P-1 before the next packet, in FIFO order
  // across relinearization.
  for (std::uint32_t i = 0; i < 100; ++i) pool.push_packet(2, i);
  EXPECT_EQ(pool.size(2), 100U * kFlits);
  EXPECT_EQ(pool.switch_flits_total(), 0U);  // NIC flits are not switch flits
  for (std::uint32_t i = 0; i < 100; ++i) {
    for (std::uint32_t f = 0; f < kFlits; ++f) {
      const FlitRef front = pool.front(2);
      EXPECT_EQ(front.packet_slot, i);
      EXPECT_EQ(front.flit_index, f);
      const FlitRef popped = pool.pop(2);
      EXPECT_EQ(popped.packet_slot, i);
      EXPECT_EQ(popped.flit_index, f);
    }
  }
  EXPECT_EQ(pool.size(2), 0U);
  EXPECT_GT(pool.bytes(), 0U);
}

TEST(FlitBufferPool, NicRingWrapsAroundAcrossGrowth) {
  constexpr std::uint32_t kFlits = 2;
  FlitBufferPool pool(0, 1, 2, kFlits);
  // Interleave pushes and pops so the head cursor wraps inside the
  // initial 16-entry ring, then force growth mid-wrap — and mid-packet,
  // with the front packet partly sent: relinearization must preserve
  // FIFO order and the sent count from an arbitrary head offset.
  std::uint32_t next_push = 0;
  std::uint32_t next_pop = 0;
  const auto pop_packet = [&] {
    for (std::uint32_t f = 0; f < kFlits; ++f) {
      const FlitRef flit = pool.pop(0);
      EXPECT_EQ(flit.packet_slot, next_pop);
      EXPECT_EQ(flit.flit_index, f);
    }
    ++next_pop;
  };
  for (std::uint32_t round = 0; round < 10; ++round) {
    for (std::uint32_t i = 0; i < 12; ++i) pool.push_packet(0, next_push++);
    for (std::uint32_t i = 0; i < 12; ++i) pop_packet();
  }
  pool.push_packet(0, next_push++);
  const FlitRef first = pool.pop(0);  // leave the front packet half sent
  EXPECT_EQ(first.packet_slot, next_pop);
  EXPECT_EQ(first.flit_index, 0U);
  for (std::uint32_t i = 0; i < 200; ++i) pool.push_packet(0, next_push++);
  EXPECT_EQ(pool.size(0), 201U * kFlits - 1);
  const FlitRef second = pool.pop(0);
  EXPECT_EQ(second.packet_slot, next_pop);
  EXPECT_EQ(second.flit_index, 1U);
  ++next_pop;
  while (next_pop < next_push) pop_packet();
  EXPECT_EQ(pool.size(0), 0U);
}

TEST(FlitBufferPool, NicSlotReleasesOnlyWhenNoPacketIsPartlySent) {
  FlitBufferPool pool(0, 1, 2, 2);
  pool.push_packet(0, 5);
  (void)pool.pop(0);  // head flit sent, tail still queued
  const std::uint32_t s = pool.slot_id(0);
  ASSERT_NE(s, FlitBufferPool::kNoSlot);
  EXPECT_EQ(pool.slot(s).nic_sent, 1U);
  pool.maybe_release(0);
  EXPECT_TRUE(pool.has_slot(0));  // the tail is still queued
  (void)pool.pop(0);  // the tail pop resets the sent count
  EXPECT_EQ(pool.slot(s).nic_sent, 0U);
  pool.maybe_release(0);
  EXPECT_FALSE(pool.has_slot(0));
  EXPECT_EQ(pool.resident_slots(), 0U);
}

TEST(FlitBufferPool, SlotReleasesOnlyWhenEveryFieldIsDefault) {
  FlitBufferPool pool(1, 0, 4);
  // Pin the slot with each non-default field in turn; with any one of
  // them set maybe_release must keep it, with all cleared it must go.
  using Slot = FlitBufferPool::BufferSlot;
  const std::vector<void (*)(Slot&, bool)> fields = {
      [](Slot& sl, bool set) { sl.size = set ? 1 : 0; },
      [](Slot& sl, bool set) { sl.out_alloc = set ? 3 : kNoBuffer; },
      [](Slot& sl, bool set) { sl.claim = set ? 3 : kNoBuffer; },
      [](Slot& sl, bool set) { sl.credits_used = set ? 1 : 0; },
      [](Slot& sl, bool set) { sl.pending_returns = set ? 1 : 0; },
      [](Slot& sl, bool set) { sl.nic_sent = set ? 1 : 0; },
      [](Slot& sl, bool set) { sl.blocked_since_plus1 = set ? 9 : 0; },
      [](Slot& sl, bool set) { sl.off = set ? 1 : 0; },
      [](Slot& sl, bool set) { sl.in_dirty = set ? 1 : 0; },
  };
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::uint32_t s = pool.bind(0);
    fields[i](pool.slot(s), true);
    pool.maybe_release_at(s);
    EXPECT_TRUE(pool.has_slot(0)) << "field " << i;
    fields[i](pool.slot(s), false);
    pool.maybe_release_at(s);
    EXPECT_FALSE(pool.has_slot(0)) << "field " << i;
  }
  EXPECT_EQ(pool.peak_slots(), 1U);  // one slot, recycled every time
}

TEST(FlitBufferPool, SlotsRecycleWhenStateReturnsToDefault) {
  FlitBufferPool pool(4, 0, 4);
  pool.push(0, FlitRef{1, 0});
  pool.push(2, FlitRef{2, 0});
  EXPECT_EQ(pool.resident_slots(), 2U);
  EXPECT_TRUE(pool.has_slot(0));
  EXPECT_FALSE(pool.has_slot(1));

  // Draining alone releases; non-default side state pins.
  (void)pool.pop(0);
  pool.maybe_release(0);
  EXPECT_FALSE(pool.has_slot(0));
  EXPECT_EQ(pool.resident_slots(), 1U);

  (void)pool.pop(2);
  pool.set_claim(2, 7);
  pool.maybe_release(2);
  EXPECT_TRUE(pool.has_slot(2));  // claim pins the slot
  pool.set_claim(2, kNoBuffer);
  pool.maybe_release(2);
  EXPECT_FALSE(pool.has_slot(2));
  EXPECT_EQ(pool.resident_slots(), 0U);

  // A recycled slot is reused for the next activation, so the slab's
  // high-water mark tracks simultaneous residency, not total traffic.
  const std::uint32_t before = pool.peak_slots();
  pool.push(3, FlitRef{3, 0});
  EXPECT_EQ(pool.peak_slots(), before);
  // Reset state: a fresh slot starts with defaults, not the recycled
  // slot's stale out_alloc/claim.
  EXPECT_EQ(pool.out_alloc(3), kNoBuffer);
  EXPECT_EQ(pool.claim(3), kNoBuffer);
  EXPECT_EQ(pool.blocked_since(3), kNeverBlocked);
}

TEST(PacketPoolUnit, RecyclesSlotsAndTracksHighWater) {
  PacketPool pool;
  sim::Packet p;
  p.size_flits = 1;
  const std::uint32_t a = pool.acquire(p);
  const std::uint32_t b = pool.acquire(p);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.live(), 2U);
  EXPECT_EQ(pool.slot_count(), 2U);
  pool.release(a);
  EXPECT_EQ(pool.live(), 1U);
  // The freed slot is reused before the slab grows.
  const std::uint32_t c = pool.acquire(p);
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.slot_count(), 2U);  // high-water, not total acquires
  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.live(), 0U);
  EXPECT_EQ(pool.slot_count(), 2U);
}

TEST(PacketPoolUnit, DebugChecksCatchDoubleReleaseAndUseAfterRelease) {
  if constexpr (!kDebugChecksEnabled) {
    GTEST_SKIP() << "NBCLOS_DEBUG_CHECKS compiled out";
  } else {
    PacketPool pool;
    sim::Packet p;
    p.id = 42;
    const std::uint32_t slot = pool.acquire(p);
    pool.release(slot);
    EXPECT_THROW(pool.release(slot), precondition_error);
    EXPECT_THROW((void)pool.at(slot), precondition_error);
    // Reacquiring clears the tombstone.
    const std::uint32_t again = pool.acquire(p);
    EXPECT_EQ(again, slot);
    EXPECT_EQ(pool.at(again).id, 42U);
  }
}

TEST(CreditLedgerUnit, ReturnsBecomeVisibleAfterTheDelay) {
  FlitBufferPool pool(1, 0, 4);
  CreditLedger ledger(pool, 2);
  EXPECT_EQ(ledger.credits(0), 4U);
  ledger.consume(0);
  ledger.consume(0);
  EXPECT_EQ(ledger.credits(0), 2U);
  ledger.schedule_return(0, 10);
  EXPECT_EQ(ledger.pending_returns(0), 1U);
  ledger.advance(11);
  EXPECT_EQ(ledger.credits(0), 2U);  // not yet: due at 10 + 2
  ledger.advance(12);
  EXPECT_EQ(ledger.credits(0), 3U);
  EXPECT_EQ(ledger.pending_returns(0), 0U);
}

TEST(CreditLedgerUnit, CreditActivityAlonePinsAndReleasesSlots) {
  FlitBufferPool pool(2, 0, 4);
  CreditLedger ledger(pool, 1);
  EXPECT_EQ(pool.resident_slots(), 0U);
  ledger.consume(0);  // credit state binds a slot without any flit
  EXPECT_TRUE(pool.has_slot(0));
  ledger.schedule_return(0, 5);
  ledger.advance(6);  // return applied -> all-default -> recycled
  EXPECT_FALSE(pool.has_slot(0));
  EXPECT_EQ(ledger.credits(0), 4U);
}

TEST(CreditLedgerUnit, RejectsSameCycleReturns) {
  FlitBufferPool pool(1, 0, 4);
  EXPECT_THROW(CreditLedger(pool, 0), precondition_error);
}

TEST(OnOffSignalUnit, LatchesFromOccupancyWithThreshold) {
  FlitBufferPool pool(1, 0, 4);
  OnOffSignal signal(pool, 3);
  EXPECT_FALSE(signal.off(0));
  pool.push(0, FlitRef{});
  pool.push(0, FlitRef{});
  pool.push(0, FlitRef{});
  signal.mark_dirty(0);
  EXPECT_FALSE(signal.off(0));  // not visible until the latch
  signal.latch();
  EXPECT_TRUE(signal.off(0));
  (void)pool.pop(0);
  signal.mark_dirty(0);
  signal.latch();
  EXPECT_FALSE(signal.off(0));
}

TEST(OnOffSignalUnit, RejectsZeroThreshold) {
  FlitBufferPool pool(1, 0, 4);
  EXPECT_THROW(OnOffSignal(pool, 0), precondition_error);
}

}  // namespace
}  // namespace nbclos
