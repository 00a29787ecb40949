#include <gtest/gtest.h>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/degraded_routing.hpp"
#include "nbclos/fault/failure_model.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/oracle.hpp"

namespace nbclos::fault {
namespace {

// ftree(2+4, 4): n = 2, m = n^2 = 4 tops, r = 4, 8 leaves — the smallest
// fabric where Theorem 3 routing is exercised nontrivially.
FoldedClos nonblocking_ftree() { return FoldedClos(FtreeParams{2, 4, 4}); }

TEST(DegradedYuanRouting, MatchesYuanWhenPristine) {
  const auto ft = nonblocking_ftree();
  const auto net = build_network(ft);
  const DegradedView view(net);
  const DegradedYuanRouting degraded(ft, view);
  const YuanNonblockingRouting yuan(ft);
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      if (s == d) continue;
      const SDPair sd{LeafId{s}, LeafId{d}};
      EXPECT_EQ(degraded.route(sd), yuan.route(sd));
      if (ft.needs_top(sd)) {
        EXPECT_FALSE(degraded.uses_fallback(sd));
      }
    }
  }
}

TEST(DegradedYuanRouting, ReroutesAroundDeadTopSwitch) {
  const auto ft = nonblocking_ftree();
  const auto net = build_network(ft);
  DegradedView view(net);
  FailureModel model(net);
  // Kill top switch (i, j) = (0, 1), i.e. flat index 1.
  const TopId dead = YuanNonblockingRouting::top_index(ft.n(), 0, 1);
  model.fail_top_switch(ft, dead);
  model.apply_static(view);
  const DegradedYuanRouting routing(ft, view);

  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      if (s == d) continue;
      const SDPair sd{LeafId{s}, LeafId{d}};
      if (!ft.needs_top(sd)) continue;
      const auto path = routing.try_route(sd);
      ASSERT_TRUE(path.has_value());
      EXPECT_NE(path->top, dead);  // never routes through the dead top
      const bool was_primary =
          YuanNonblockingRouting::top_index(ft.n(), ft.local_of(sd.src),
                                            ft.local_of(sd.dst)) == dead;
      EXPECT_EQ(routing.uses_fallback(sd), was_primary);
    }
  }
}

TEST(DegradedYuanRouting, DegradedPathsAvoidAllDeadLinks) {
  const auto ft = nonblocking_ftree();
  const auto net = build_network(ft);
  DegradedView view(net);
  FailureModel model(net);
  model.inject_random_uplink_failures(ft, 4, 42);
  model.apply_static(view);
  const DegradedYuanRouting routing(ft, view);
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pattern = random_permutation(ft.leaf_count(), rng);
    for (const auto sd : pattern) {
      const auto path = routing.try_route(sd);
      ASSERT_TRUE(path.has_value());
      for (const auto link : ft.links_of(*path)) {
        EXPECT_TRUE(view.channel_alive(link.value));
      }
    }
  }
}

TEST(DegradedYuanRouting, ReportsUnroutablePairs) {
  const auto ft = nonblocking_ftree();
  const auto net = build_network(ft);
  DegradedView view(net);
  // Cut every uplink of bottom switch 0: its leaves cannot cross.
  for (std::uint32_t t = 0; t < ft.m(); ++t) {
    view.fail_channel(ft.up_link(BottomId{0}, TopId{t}).value);
  }
  const DegradedYuanRouting routing(ft, view);
  const SDPair cross{LeafId{0}, LeafId{ft.n() * 2}};  // switch 0 -> switch 2
  EXPECT_EQ(routing.try_route(cross), std::nullopt);
  EXPECT_THROW((void)routing.route(cross), precondition_error);
  // Same-switch delivery still works (no top switch involved).
  const SDPair local{LeafId{0}, LeafId{1}};
  EXPECT_TRUE(routing.try_route(local).has_value());
}

TEST(FaultedFtreeOracle, AvoidsDeadUplinkAtBottomSwitch) {
  const auto ft = nonblocking_ftree();
  const auto net = build_network(ft);
  DegradedView view(net);
  const YuanNonblockingRouting yuan(ft);
  sim::FtreeOracle oracle(ft, sim::UplinkPolicy::kTable, &yuan, 7, &view);

  const std::vector<std::uint32_t> depths(net.channel_count(), 0);
  const sim::SimView sim_view(net, depths);
  const FtreeNetworkMap map{ft.params()};

  // Cross packet leaf 0 (switch 0, local 0) -> leaf 6 (switch 3, local 0):
  // Theorem 3 sends it through top (0, 0).
  sim::Packet packet;
  packet.src_terminal = 0;
  packet.dst_terminal = ft.n() * 3;
  const auto bottom = map.bottom(BottomId{0});
  const auto primary = ft.up_link(BottomId{0}, TopId{0}).value;
  EXPECT_EQ(oracle.next_channel(sim_view, bottom, packet), primary);
  EXPECT_EQ(oracle.reroute_count(), 0U);

  // Kill the primary uplink: the oracle must steer to a live top that can
  // still reach bottom switch 3.
  view.fail_channel(primary);
  const auto rerouted = oracle.next_channel(sim_view, bottom, packet);
  EXPECT_NE(rerouted, primary);
  EXPECT_TRUE(view.channel_alive(rerouted));
  const auto& chosen = net.channel(rerouted);
  EXPECT_EQ(chosen.src, bottom);
  EXPECT_TRUE(map.is_top(chosen.dst));
  EXPECT_TRUE(view.channel_alive(
      ft.down_link(map.top_of(chosen.dst), BottomId{3}).value));
  EXPECT_EQ(oracle.reroute_count(), 1U);
}

TEST(FaultedFtreeOracle, DModKFallsBackToLeastQueueLiveTop) {
  const auto ft = nonblocking_ftree();
  const auto net = build_network(ft);
  DegradedView view(net);
  sim::FtreeOracle oracle(ft, sim::UplinkPolicy::kDModK, nullptr, 7, &view);
  EXPECT_EQ(oracle.name(), "ftree-fault-dmodk");

  // Leaf 0 (switch 0) -> leaf 6 (switch 3): d-mod-k prefers top 6 mod 4.
  sim::Packet packet;
  packet.src_terminal = 0;
  packet.dst_terminal = ft.n() * 3;
  const TopId preferred{packet.dst_terminal % ft.m()};
  const FtreeNetworkMap map{ft.params()};
  const auto bottom = map.bottom(BottomId{0});
  const auto uplink = [&](std::uint32_t t) {
    return ft.up_link(BottomId{0}, TopId{t}).value;
  };
  std::vector<std::uint32_t> depths(net.channel_count(), 0);
  depths[uplink(0)] = 5;
  depths[uplink(1)] = 1;
  depths[uplink(3)] = 4;
  const sim::SimView sim_view(net, depths);
  EXPECT_EQ(oracle.next_channel(sim_view, bottom, packet),
            uplink(preferred.value));
  EXPECT_EQ(oracle.reroute_count(), 0U);

  // With the preferred uplink dead, the live top with the shortest uplink
  // queue (top 1, not the next one in scan order) takes the packet, and
  // that top still reaches bottom switch 3.
  view.fail_channel(uplink(preferred.value));
  EXPECT_EQ(oracle.next_channel(sim_view, bottom, packet), uplink(1));
  EXPECT_TRUE(view.channel_alive(ft.down_link(TopId{1}, BottomId{3}).value));
  EXPECT_EQ(oracle.reroute_count(), 1U);
  EXPECT_EQ(oracle.no_route_count(), 0U);
}

TEST(FaultedFtreeOracle, ReturnsNoRouteWhenIsolated) {
  const auto ft = nonblocking_ftree();
  const auto net = build_network(ft);
  DegradedView view(net);
  for (std::uint32_t t = 0; t < ft.m(); ++t) {
    view.fail_channel(ft.up_link(BottomId{0}, TopId{t}).value);
  }
  sim::FtreeOracle oracle(ft, sim::UplinkPolicy::kLeastQueue, nullptr, 7,
                          &view);
  const std::vector<std::uint32_t> depths(net.channel_count(), 0);
  const sim::SimView sim_view(net, depths);
  const FtreeNetworkMap map{ft.params()};
  sim::Packet packet;
  packet.src_terminal = 0;
  packet.dst_terminal = ft.n() * 2;
  EXPECT_EQ(oracle.next_channel(sim_view, map.bottom(BottomId{0}), packet),
            kNoRoute);
  EXPECT_EQ(oracle.no_route_count(), 1U);
}

// On an all-live fabric the view changes nothing: every policy takes the
// plain oracle's hop at every vertex (random draws in step, least-queue
// over uneven queues) and one PacketSim run reports the same result.
TEST(FaultedFtreeOracle, PristineViewMatchesPlainOracleForEveryPolicy) {
  const auto ft = nonblocking_ftree();
  const auto net = build_network(ft);
  const DegradedView view(net);
  const YuanNonblockingRouting yuan(ft);
  Xoshiro256 depth_rng(19);
  std::vector<std::uint32_t> depths(net.channel_count());
  for (auto& depth : depths) {
    depth = static_cast<std::uint32_t>(depth_rng.below(4));
  }
  const sim::SimView sim_view(net, depths);
  const auto traffic = sim::TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 3), ft.leaf_count());
  sim::SimConfig config;
  config.injection_rate = 0.8;
  config.warmup_cycles = 200;
  config.measure_cycles = 1000;
  config.seed = 23;

  for (const auto policy :
       {sim::UplinkPolicy::kTable, sim::UplinkPolicy::kRandom,
        sim::UplinkPolicy::kLeastQueue, sim::UplinkPolicy::kDModK}) {
    SCOPED_TRACE(static_cast<int>(policy));
    {
      sim::FtreeOracle faulted(ft, policy, &yuan, 7, &view);
      sim::FtreeOracle plain(ft, policy, &yuan);
      for (std::uint32_t src = 0; src < ft.leaf_count(); ++src) {
        for (std::uint32_t dst = 0; dst < ft.leaf_count(); ++dst) {
          if (src == dst) continue;
          sim::Packet packet;
          packet.src_terminal = src;
          packet.dst_terminal = dst;
          for (std::uint32_t v = 0; v < net.vertex_count(); ++v) {
            if (net.vertex(v).kind == VertexKind::kTerminal && v != src) {
              continue;
            }
            EXPECT_EQ(faulted.next_channel(sim_view, v, packet),
                      plain.next_channel(sim_view, v, packet))
                << "vertex " << v << ", " << src << " -> " << dst;
          }
        }
      }
      EXPECT_EQ(faulted.reroute_count(), 0U);
      EXPECT_EQ(faulted.no_route_count(), 0U);
    }

    sim::FtreeOracle faulted(ft, policy, &yuan, 7, &view);
    sim::FtreeOracle plain(ft, policy, &yuan);
    DegradedView run_view(net);
    const auto a =
        sim::PacketSim(net, faulted, traffic, config, &run_view).run();
    const auto b = sim::PacketSim(net, plain, traffic, config).run();
    EXPECT_EQ(a.offered_load, b.offered_load);
    EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
    EXPECT_EQ(a.mean_latency, b.mean_latency);
    EXPECT_EQ(a.p50_latency, b.p50_latency);
    EXPECT_EQ(a.p99_latency, b.p99_latency);
    EXPECT_EQ(a.p999_latency, b.p999_latency);
    EXPECT_EQ(a.latency_bucket_width, b.latency_bucket_width);
    EXPECT_EQ(a.injected_packets, b.injected_packets);
    EXPECT_EQ(a.delivered_packets, b.delivered_packets);
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.mean_switch_queue_depth, b.mean_switch_queue_depth);
    EXPECT_EQ(a.min_flow_throughput, b.min_flow_throughput);
    EXPECT_EQ(a.max_flow_throughput, b.max_flow_throughput);
    EXPECT_GT(a.delivered_packets, 0U);
    EXPECT_EQ(faulted.reroute_count(), 0U);
  }
}

}  // namespace
}  // namespace nbclos::fault
