#include "nbclos/routing/kary_updown.hpp"

#include <gtest/gtest.h>

#include <set>

#include "nbclos/sim/engine.hpp"
#include "nbclos/routing/route_cache.hpp"

namespace nbclos {
namespace {

TEST(KaryUpDown, NcaLevels) {
  const auto net = build_kary_ntree(2, 3);  // 8 terminals
  const KaryTreeRouter router(net, 2, 3);
  // Same edge switch (terminals 0, 1).
  EXPECT_EQ(router.nca_level(0, 1), 0U);
  // Switch positions 0 (00) and 1 (01): differ in digit 0 -> level 1.
  EXPECT_EQ(router.nca_level(0, 2), 1U);
  // Positions 0 (00) and 2 (10): differ in digit 1 -> level 2.
  EXPECT_EQ(router.nca_level(0, 4), 2U);
  EXPECT_EQ(router.nca_level(1, 7), 2U);
  // Symmetry.
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      EXPECT_EQ(router.nca_level(s, d), router.nca_level(d, s));
    }
  }
}

TEST(KaryUpDown, DeterministicRoutesAreWellFormed) {
  const auto net = build_kary_ntree(3, 2);  // 9 terminals
  const KaryTreeRouter router(net, 3, 2);
  for (std::uint32_t s = 0; s < 9; ++s) {
    for (std::uint32_t d = 0; d < 9; ++d) {
      if (s == d) continue;
      const auto path = router.route({LeafId{s}, LeafId{d}});
      validate_channel_path(net, s, d, path);
      // Length: 2 (terminal links) + 2 * climb.
      const auto climb = router.nca_level(s, d);
      EXPECT_EQ(path.size(), 2U + 2U * climb);
    }
  }
}

TEST(KaryUpDown, RandomRoutesAreWellFormedAndDiverse) {
  const auto net = build_kary_ntree(2, 3);
  const KaryTreeRouter router(net, 2, 3);
  Xoshiro256 rng(5);
  const SDPair sd{LeafId{0}, LeafId{7}};  // full-height climb
  std::set<ChannelPath> seen;
  for (int i = 0; i < 64; ++i) {
    const auto path = router.route_random(sd, rng);
    validate_channel_path(net, 0, 7, path);
    seen.insert(path);
  }
  // Climb 2 with 2 free digit choices each of 2 values -> 4 distinct
  // up-paths; random sampling over 64 draws hits all of them.
  EXPECT_EQ(seen.size(), 4U);
}

TEST(KaryUpDown, DeterministicRoutingConvergesPerDestination) {
  // Destination-keyed ascent: every source reaches a destination through
  // the same topmost switch (the D-mod-K convergence property).
  const auto net = build_kary_ntree(2, 3);
  const KaryTreeRouter router(net, 2, 3);
  const LeafId dst{5};
  std::set<std::uint32_t> top_vertices;
  for (std::uint32_t s = 0; s < 8; ++s) {
    if (s == dst.value) continue;
    const auto path = router.route({LeafId{s}, dst});
    if (router.nca_level(s, dst.value) < 2) continue;  // not full height
    // Vertex after the climb: dst of the climb-th channel.
    const auto apex = net.channel(path[router.nca_level(s, dst.value)]).dst;
    top_vertices.insert(apex);
  }
  EXPECT_EQ(top_vertices.size(), 1U);
}

TEST(KaryUpDown, HeightOneIsDirect) {
  const auto net = build_kary_ntree(4, 1);
  const KaryTreeRouter router(net, 4, 1);
  const auto path = router.route({LeafId{0}, LeafId{3}});
  EXPECT_EQ(path.size(), 2U);
  validate_channel_path(net, 0, 3, path);
}

TEST(KaryUpDown, RejectsMismatchedNetwork) {
  const auto net = build_kary_ntree(2, 3);
  EXPECT_THROW(KaryTreeRouter(net, 2, 2), precondition_error);
  EXPECT_THROW(KaryTreeRouter(net, 3, 3), precondition_error);
}

TEST(KaryUpDown, RejectsBadPairs) {
  const auto net = build_kary_ntree(2, 2);
  const KaryTreeRouter router(net, 2, 2);
  EXPECT_THROW((void)router.route({LeafId{0}, LeafId{0}}),
               precondition_error);
  EXPECT_THROW((void)router.route({LeafId{0}, LeafId{4}}),
               precondition_error);
}

TEST(KaryUpDown, SimulatesUnderUniformTraffic) {
  // End-to-end: the up/down routes drive the packet simulator on a
  // k-ary n-tree at moderate uniform load without loss of progress.
  const auto net = build_kary_ntree(2, 3);
  const KaryTreeRouter router(net, 2, 3);
  const routing::ChannelRouteCache cache(
      net, [&router](SDPair sd) { return router.route(sd); });
  sim::NextHopOracle oracle(cache);
  const auto traffic = sim::TrafficPattern::uniform(8);
  sim::SimConfig config;
  config.injection_rate = 0.3;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  sim::PacketSim simulator(net, oracle, traffic, config);
  const auto result = simulator.run();
  EXPECT_NEAR(result.accepted_throughput, 0.3, 0.05);
}

}  // namespace
}  // namespace nbclos
