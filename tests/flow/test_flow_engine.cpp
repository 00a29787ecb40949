/// \file test_flow_engine.cpp
/// \brief FlowSim behavior under *finite* buffers: configuration
///        validation, wormhole vs virtual cut-through, credit vs on/off
///        backpressure, occupancy bounds, stall telemetry, and the
///        storage substrate (FlitBufferPool / CreditLedger / OnOffSignal).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/engine.hpp"
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

// --- storage substrate ---------------------------------------------------

TEST(FlitBufferPool, SwitchSlicesBoundAndNicRingsGrow) {
  FlitBufferPool pool(2, 1, 2);
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

  // The NIC ring grows past the switch capacity and past its initial
  // allocation, preserving FIFO order across relinearization.
  for (std::uint32_t i = 0; i < 100; ++i) pool.push(2, FlitRef{i, 0});
  EXPECT_EQ(pool.size(2), 100U);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(pool.pop(2).packet_slot, i);
  }
  EXPECT_GT(pool.bytes(), 0U);
}

TEST(FlitBufferPool, NicRingWrapsAroundAcrossGrowth) {
  FlitBufferPool pool(0, 1, 2);
  // Interleave pushes and pops so the head cursor wraps inside the
  // initial 16-entry ring, then force growth mid-wrap: relinearization
  // must preserve FIFO order from an arbitrary head offset.
  std::uint32_t next_push = 0;
  std::uint32_t next_pop = 0;
  for (std::uint32_t round = 0; round < 10; ++round) {
    for (std::uint32_t i = 0; i < 12; ++i) pool.push(0, FlitRef{next_push++, 0});
    for (std::uint32_t i = 0; i < 12; ++i) {
      EXPECT_EQ(pool.pop(0).packet_slot, next_pop++);
    }
  }
  for (std::uint32_t i = 0; i < 200; ++i) pool.push(0, FlitRef{next_push++, 0});
  while (next_pop < next_push) {
    EXPECT_EQ(pool.pop(0).packet_slot, next_pop++);
  }
  EXPECT_EQ(pool.size(0), 0U);
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
