/// NextHopOracle over a ChannelRouteCache: the packet simulator driven by
/// explicit precomputed channel paths, on any topology with a route
/// function (multi-level recursive fabrics, crossbars, ftrees).
#include <gtest/gtest.h>

#include "nbclos/analysis/network_audit.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/core/multilevel.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/oracle.hpp"

namespace nbclos::sim {
namespace {

TEST(PathOracle, FollowsPrecomputedHops) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const auto net = build_network(ft);
  const YuanNonblockingRouting routing(ft);
  const auto route = [&](SDPair sd) {
    ChannelPath path;
    for (const auto link : ft.links_of(routing.route(sd))) {
      path.push_back(link.value);
    }
    return path;
  };
  const routing::ChannelRouteCache cache(net, route);
  NextHopOracle oracle(cache);
  EXPECT_EQ(oracle.name(), "route-cache");
  std::vector<std::uint32_t> depths(net.channel_count(), 0);
  const SimView view(net, depths);

  Packet p;
  p.src_terminal = 0;
  p.dst_terminal = 5;
  // Walk the oracle hop by hop and compare with the direct route.
  const auto expected = route({LeafId{0}, LeafId{5}});
  std::uint32_t at = 0;
  for (const auto want : expected) {
    const auto got = oracle.next_channel(view, at, p);
    EXPECT_EQ(got, want);
    at = net.channel(got).dst;
  }
  EXPECT_EQ(at, 5U);
}

TEST(PathOracle, EntryCountMatchesPairsTimesHops) {
  const auto net = build_crossbar(4);
  const routing::ChannelRouteCache cache(net, [](SDPair sd) {
    return ChannelPath{sd.src.value, 4 + sd.dst.value};
  });
  // 12 ordered pairs x 2 hops = 24 (pair, hop) entries.
  EXPECT_EQ(cache.entry_count(), 24U);
}

TEST(PathOracle, RejectsUnknownPacket) {
  const auto net = build_crossbar(3);
  const routing::ChannelRouteCache cache(net, [](SDPair sd) {
    return ChannelPath{sd.src.value, 3 + sd.dst.value};
  });
  NextHopOracle oracle(cache);
  std::vector<std::uint32_t> depths(net.channel_count(), 0);
  const SimView view(net, depths);
  Packet p;
  p.src_terminal = 0;
  p.dst_terminal = 0;  // self pair never routed
  EXPECT_THROW((void)oracle.next_channel(view, 0, p), precondition_error);
}

TEST(PathOracle, SimulatesMultiLevelFabricAtFullLoad) {
  // End-to-end: the 3-level recursive nonblocking fabric sustains a full
  // permutation at load 1.0 in the packet simulator — the paper's
  // induction claim observed dynamically, not just by audit.
  const MultiLevelFabric fabric(2, 3);  // 24 ports
  const auto& net = fabric.network();
  const routing::ChannelRouteCache cache(
      net, [&fabric](SDPair sd) { return fabric.route(sd); });
  NextHopOracle oracle(cache);
  const auto pattern = shift_permutation(fabric.port_count(), 5);
  const auto traffic =
      TrafficPattern::permutation(pattern, fabric.port_count());
  SimConfig config;
  config.injection_rate = 1.0;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  PacketSim sim(net, oracle, traffic, config);
  const auto result = sim.run();
  EXPECT_GT(result.accepted_throughput, 0.97);
  EXPECT_FALSE(result.saturated());
}

}  // namespace
}  // namespace nbclos::sim
