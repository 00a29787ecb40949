#include "nbclos/core/multilevel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/routing/route_cache.hpp"

namespace nbclos {
namespace {

TEST(MultiLevel, TwoLevelMatchesClosedForm) {
  for (std::uint32_t n = 2; n <= 4; ++n) {
    const MultiLevelFabric fabric(n, 2);
    const auto d = fabric.design();
    EXPECT_EQ(fabric.port_count(), d.ports);
    EXPECT_EQ(fabric.switch_count(), d.switches);
  }
}

TEST(MultiLevel, ThreeLevelMatchesClosedForm) {
  for (std::uint32_t n = 2; n <= 3; ++n) {
    const MultiLevelFabric fabric(n, 3);
    const auto d = fabric.design();
    EXPECT_EQ(fabric.port_count(), d.ports);
    EXPECT_EQ(fabric.switch_count(), d.switches);
    // Spelled out for n = 2: 24 ports, 2*16+2*8+4 = 52 switches.
    if (n == 2) {
      EXPECT_EQ(fabric.port_count(), 24U);
      EXPECT_EQ(fabric.switch_count(), 52U);
    }
  }
}

TEST(MultiLevel, FourLevelMatchesClosedForm) {
  const MultiLevelFabric fabric(2, 4);
  EXPECT_EQ(fabric.port_count(), 48U);  // 2^5 + 2^4
  EXPECT_EQ(fabric.switch_count(), fabric.design().switches);
}

TEST(MultiLevel, RoutesAreWellFormed) {
  // The route cache refuses any route that does not start at its source
  // terminal, chain channel to channel and end at its destination.
  const MultiLevelFabric fabric(2, 3);
  EXPECT_NO_THROW(routing::ChannelRouteCache(
      fabric.network(), [&fabric](SDPair sd) { return fabric.route(sd); }));
}

TEST(MultiLevel, RouteLengthReflectsLocality) {
  const MultiLevelFabric fabric(2, 3);
  // Same bottom switch: leaf-up + leaf-down only.
  EXPECT_EQ(fabric.route({LeafId{0}, LeafId{1}}).size(), 2U);
  // Leaves 0 and 2 share a level-3 bottom-switch pair... port 0 and 2 sit
  // on different bottom switches (2 ports each), so the route climbs at
  // least one level: 2 leaf + 2 inner channels.
  EXPECT_EQ(fabric.route({LeafId{0}, LeafId{2}}).size(), 4U);
  // Maximum climb: through a level-2 sub-block into its own sub-switch:
  // 2 leaf + 2 + 2 channels.
  EXPECT_EQ(fabric.route({LeafId{0}, LeafId{23}}).size(), 6U);
}

TEST(MultiLevel, CertifyProvesThreeLevelNonblocking) {
  // The paper's induction claim, machine-checked: the generalized Lemma 1
  // audit passes on the recursive construction.
  const MultiLevelFabric two(2, 2);
  EXPECT_TRUE(two.certify());
  const MultiLevelFabric three(2, 3);
  EXPECT_TRUE(three.certify());
  const MultiLevelFabric three_n3(3, 3);
  EXPECT_TRUE(three_n3.certify());
}

TEST(MultiLevel, FourLevelCertifies) {
  const MultiLevelFabric four(2, 4);
  EXPECT_TRUE(four.certify());
}

TEST(MultiLevel, RandomPermutationsContentionFree) {
  const MultiLevelFabric fabric(3, 3);  // 108 ports
  EXPECT_TRUE(fabric.verify_random(25, 777));
}

TEST(MultiLevel, SwitchRadixIsUniform) {
  // Every switch in the construction has radix n + n^2 (in + out
  // channel degree each equal to n + n^2).
  const MultiLevelFabric fabric(2, 3);
  const auto& net = fabric.network();
  for (std::uint32_t v = 0; v < net.vertex_count(); ++v) {
    if (net.vertex(v).kind != VertexKind::kSwitch) continue;
    EXPECT_EQ(net.out_channels(v).size(), 6U) << "vertex " << v;
    EXPECT_EQ(net.in_channels(v).size(), 6U) << "vertex " << v;
  }
}

TEST(MultiLevel, RejectsBadParameters) {
  EXPECT_THROW(MultiLevelFabric(1, 2), precondition_error);
  EXPECT_THROW(MultiLevelFabric(2, 1), precondition_error);
  EXPECT_THROW(MultiLevelFabric(10, 7), precondition_error);  // too large
}

TEST(MultiLevel, RouteRejectsBadPairs) {
  const MultiLevelFabric fabric(2, 2);
  EXPECT_THROW((void)fabric.route({LeafId{0}, LeafId{0}}),
               precondition_error);
  EXPECT_THROW((void)fabric.route({LeafId{0}, LeafId{99}}),
               precondition_error);
}

TEST(MultiLevelFabric, MatchesFabricRouteOnEveryPair) {
  // The fabric as a NextHop walks exactly the paths route() derives.
  for (const std::uint32_t levels : {2U, 3U}) {
    const MultiLevelFabric fabric(2, levels);
    EXPECT_EQ(fabric.name(), "multilevel-thm3");
    EXPECT_EQ(fabric.bytes(), 0U);
    std::vector<std::uint32_t> walked;
    for (std::uint32_t s = 0; s < fabric.port_count(); ++s) {
      for (std::uint32_t d = 0; d < fabric.port_count(); ++d) {
        if (s == d) continue;
        routing::walk_path(fabric, s, d, walked);
        EXPECT_EQ(walked, fabric.route({LeafId{s}, LeafId{d}}))
            << "levels=" << levels << " " << s << "->" << d;
      }
    }
  }
}

TEST(MultiLevelFabric, SelfPairHasNoRoute) {
  const MultiLevelFabric fabric(2, 2);
  EXPECT_EQ(fabric.next_channel_from(3, 3, 3), fault::kNoRoute);
}

}  // namespace
}  // namespace nbclos
