/// \file test_flow_deadlock.cpp
/// \brief The deadlock watchdog: a hand-built 4-switch directed ring
///        with clockwise routes is the canonical cyclic channel
///        dependency, and wormhole packets longer than the buffers must
///        wedge on it.  The watchdog has to detect the wedge, stop the
///        run cleanly (no hang), and emit a usable diagnostic.  A folded
///        Clos under the same aggressive configuration must stay
///        deadlock-free — up*/down* routes carry no cyclic dependency.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/flow/sharded.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

using flow::Backpressure;
using flow::FlowConfig;
using flow::FlowSim;
using flow::ShardedFlowSim;
using flow::Switching;

constexpr std::uint32_t kRing = 4;

/// Terminals 0..3 (vertices 0..3, as FlowSim requires), switches 4..7,
/// and three channel groups: NIC uplinks t_i -> s_i, ejection downlinks
/// s_i -> t_i, and the directed ring s_i -> s_(i+1 mod 4).
struct RingFabric {
  RingFabric() {
    for (std::uint32_t i = 0; i < kRing; ++i) {
      net.add_vertex(VertexKind::kTerminal, 0, i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      net.add_vertex(VertexKind::kSwitch, 1, i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      nic[i] = net.add_channel(i, kRing + i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      eject[i] = net.add_channel(kRing + i, i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      ring[i] = net.add_channel(kRing + i, kRing + (i + 1) % kRing);
    }
    net.finalize();
    // Every pair routes clockwise: up at the source, around the ring to
    // the destination switch, then down.  The ring channels therefore
    // depend on each other cyclically — by design.
    cache = std::make_shared<const routing::ChannelRouteCache>(
        net, [this](SDPair sd) {
          std::vector<std::uint32_t> path{nic[sd.src.value]};
          for (std::uint32_t at = sd.src.value; at != sd.dst.value;
               at = (at + 1) % kRing) {
            path.push_back(ring[at]);
          }
          path.push_back(eject[sd.dst.value]);
          return path;
        });
  }

  Network net;
  std::uint32_t nic[kRing];
  std::uint32_t eject[kRing];
  std::uint32_t ring[kRing];
  std::shared_ptr<const routing::ChannelRouteCache> cache;
};

/// All four terminals flood their antipode: every route crosses two ring
/// channels, so all four ring buffers acquire claims that wait on each
/// other in a cycle.
FlowConfig wedge_config() {
  FlowConfig config;
  config.injection_rate = 1.0;
  config.packet_flits = 6;   // worm longer than the buffer: spans routers
  config.buffer_flits = 2;
  config.vcs = 1;
  config.switching = Switching::kWormhole;
  config.backpressure = Backpressure::kCredit;
  config.warmup_cycles = 200;
  config.measure_cycles = 1800;
  config.watchdog_epoch = 128;
  config.seed = 99;
  return config;
}

TEST(FlowDeadlock, WatchdogDetectsCyclicWormholeWedge) {
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 2), kRing);
  FlowSim sim(fab.cache, traffic, wedge_config());
  // run() must RETURN (the watchdog converts the hang into a result)...
  const auto result = sim.run();
  // ...and report the wedge with a usable diagnostic.
  ASSERT_TRUE(result.deadlocked);
  EXPECT_GT(result.deadlock_cycle, 0U);
  EXPECT_LT(result.deadlock_cycle, 2000U);
  EXPECT_GT(result.stuck_flits, 0U);
  ASSERT_FALSE(result.stuck_buffers.empty());
  for (const auto b : result.stuck_buffers) {
    EXPECT_LT(b, 12U);  // 8 switch buffers + 4 NIC buffers
  }
  // At least one *ring* buffer (a finite switch FIFO) is stuck — the
  // wedge lives in the cycle, not just in the NIC backlog.
  const bool switch_buffer_stuck =
      std::any_of(result.stuck_buffers.begin(), result.stuck_buffers.end(),
                  [](std::uint32_t b) { return b < 8; });
  EXPECT_TRUE(switch_buffer_stuck);
  // Delivery stops at the wedge; the run cannot have drained everything.
  EXPECT_LT(result.delivered_packets, result.injected_packets);
}

TEST(FlowDeadlock, DeadlockedRunStillSatisfiesCreditConservation) {
  // The watchdog stops the run with flits parked everywhere — wires,
  // FIFOs, the credit delay line.  The conservation identity must still
  // close exactly over that frozen state.
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 2), kRing);
  FlowSim sim(fab.cache, traffic, wedge_config());
  const auto result = sim.run();
  ASSERT_TRUE(result.deadlocked);
  EXPECT_TRUE(sim.credit_conservation_holds());
}

TEST(FlowDeadlock, CycleCounterIncludesTheTripCycle) {
  // The run executes cycles 0..deadlock_cycle, so flow.cycles counts
  // deadlock_cycle + 1 of them, at one shard and under a cut alike.
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 2), kRing);
  auto& registry = obs::metrics();
  const auto expect_trip_cycle_counted = [&](auto& sim) {
    registry.reset();
    const auto result = sim.run();
    ASSERT_TRUE(result.deadlocked);
    EXPECT_EQ(registry.counter("flow.cycles").value(),
              result.deadlock_cycle + 1);
  };
  FlowSim serial(fab.cache, traffic, wedge_config());
  expect_trip_cycle_counted(serial);
  ShardedFlowSim cut(fab.cache, traffic, wedge_config(), 2);
  expect_trip_cycle_counted(cut);
}

TEST(FlowDeadlock, WatchdogAlsoDetectsVirtualCutThroughWedge) {
  // VCT keeps a packet whole inside one router, but the buffer-wait
  // cycle (each full ring FIFO waiting for the next to empty) closes all
  // the same — the dependency cycle, not the switching granularity, is
  // what deadlocks.  The watchdog must catch this variant too.
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 2), kRing);
  FlowConfig config = wedge_config();
  config.switching = Switching::kVirtualCutThrough;
  config.buffer_flits = config.packet_flits;  // VCT floor
  FlowSim sim(fab.cache, traffic, config);
  const auto result = sim.run();
  ASSERT_TRUE(result.deadlocked);
  EXPECT_GT(result.stuck_flits, 0U);
  EXPECT_FALSE(result.stuck_buffers.empty());
}

TEST(FlowDeadlock, SingleFlowOnTheRingIsNotAFalsePositive) {
  // One sender cannot close the claim cycle: its worm snakes around the
  // ring unobstructed, so the watchdog must stay silent even though the
  // fabric is cyclic and the buffers are tight.
  RingFabric fab;
  Permutation lone{SDPair{LeafId{0}, LeafId{2}}};
  const auto traffic = sim::TrafficPattern::permutation(lone, kRing);
  FlowSim sim(fab.cache, traffic, wedge_config());
  const auto result = sim.run();
  EXPECT_FALSE(result.deadlocked);
  EXPECT_GT(result.delivered_packets, 0U);
}

TEST(FlowDeadlock, FoldedClosStaysDeadlockFreeUnderTightBuffers) {
  // The paper's fabric: up*/down* routes order the channels (up links
  // before down links), so no cyclic dependency exists and even the
  // wedge configuration must keep making progress.
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const Network net = build_network(ft);
  const YuanNonblockingRouting yuan(ft);
  const auto cache = routing::ChannelRouteCache::materialize(net, yuan);
  const auto traffic = sim::TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 1), ft.leaf_count());
  FlowSim sim(cache, traffic, wedge_config());
  const auto result = sim.run();
  EXPECT_FALSE(result.deadlocked);
  EXPECT_GT(result.delivered_packets, 0U);
  EXPECT_TRUE(result.stuck_buffers.empty());
}

TEST(FlowDeadlock, WatchdogDisabledStillTerminatesWhenTrafficDrains) {
  // watchdog_epoch = 0 disables detection; on a deadlock-free fabric the
  // run must still complete normally.
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const Network net = build_network(ft);
  const YuanNonblockingRouting yuan(ft);
  const auto cache = routing::ChannelRouteCache::materialize(net, yuan);
  const auto traffic = sim::TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 1), ft.leaf_count());
  FlowConfig config = wedge_config();
  config.watchdog_epoch = 0;
  FlowSim sim(cache, traffic, config);
  const auto result = sim.run();
  EXPECT_FALSE(result.deadlocked);
  EXPECT_GT(result.delivered_packets, 0U);
}

}  // namespace
}  // namespace nbclos
