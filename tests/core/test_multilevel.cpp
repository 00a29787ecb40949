#include "nbclos/core/multilevel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
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

/// Test-local reference of the recursive (i, j) rule, over vertex ids
/// replayed from the construction order (terminals, then each block's
/// sub-blocks before its own bottom switches).
struct ReferenceBlock {
  std::uint32_t level = 1;
  std::uint32_t switch_vertex = 0;
  std::vector<std::uint32_t> bottom;
  std::vector<ReferenceBlock> subs;

  ReferenceBlock(std::uint32_t n, std::uint32_t lvl, std::uint32_t& next)
      : level(lvl) {
    if (level == 1) {
      switch_vertex = next++;
      return;
    }
    for (std::uint32_t t = 0; t < n * n; ++t) {
      subs.emplace_back(n, lvl - 1, next);
    }
    const std::uint32_t sub_ports = subs.front().ports(n);
    for (std::uint32_t q = 0; q < sub_ports; ++q) bottom.push_back(next++);
  }
  [[nodiscard]] std::uint32_t ports(std::uint32_t n) const {
    return level == 1 ? n * n + n : subs.front().ports(n) * n;
  }
  [[nodiscard]] std::uint32_t attach(std::uint32_t port,
                                     std::uint32_t n) const {
    return level == 1 ? switch_vertex : bottom[port / n];
  }
  /// Appends the vertices after attach(in) up to attach(out): climb into
  /// sub-block i*n + j, cross it, come down to the exit bottom switch.
  void walk(std::uint32_t in, std::uint32_t out, std::uint32_t n,
            std::vector<std::uint32_t>& vertices) const {
    if (level == 1 || in / n == out / n) return;
    const ReferenceBlock& sub = subs[(in % n) * n + out % n];
    vertices.push_back(sub.attach(in / n, n));
    sub.walk(in / n, out / n, n, vertices);
    vertices.push_back(bottom[out / n]);
  }
};

TEST(MultiLevelFabric, WalksTheRecursiveRuleOnEveryPair) {
  // Every walked path visits the vertices the (i, j) rule names, and a
  // vertex off the path has no next hop.
  for (const auto& [n, levels] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {2, 2}, {3, 2}, {2, 3}}) {
    const MultiLevelFabric fabric(n, levels);
    EXPECT_EQ(fabric.name(), "multilevel-thm3");
    EXPECT_EQ(fabric.bytes(), 0U);
    const Network& net = fabric.network();
    const std::uint32_t ports = fabric.port_count();
    std::uint32_t next = ports;
    const ReferenceBlock root(n, levels, next);
    ASSERT_EQ(next, net.vertex_count());
    std::vector<std::uint32_t> walked;
    for (std::uint32_t s = 0; s < ports; ++s) {
      for (std::uint32_t d = 0; d < ports; ++d) {
        if (s == d) continue;
        SCOPED_TRACE(std::to_string(n) + "," + std::to_string(levels) + " " +
                     std::to_string(s) + "->" + std::to_string(d));
        std::vector<std::uint32_t> expected = {s, root.attach(s, n)};
        root.walk(s, d, n, expected);
        expected.push_back(d);
        routing::walk_path(fabric, s, d, walked);
        ASSERT_EQ(walked.size() + 1, expected.size());
        std::vector<bool> on_path(net.vertex_count(), false);
        for (std::size_t h = 0; h < walked.size(); ++h) {
          EXPECT_EQ(net.channel_src(walked[h]), expected[h]);
          EXPECT_EQ(net.channel_dst(walked[h]), expected[h + 1]);
          on_path[expected[h]] = true;
        }
        EXPECT_EQ(fabric.route({LeafId{s}, LeafId{d}}), walked);
        for (std::uint32_t v = 0; v < net.vertex_count(); ++v) {
          if (on_path[v]) continue;
          EXPECT_EQ(fabric.next_channel_from(v, s, d), fault::kNoRoute) << v;
        }
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
