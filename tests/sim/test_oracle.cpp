#include "nbclos/sim/oracle.hpp"

#include <gtest/gtest.h>

#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos::sim {
namespace {

struct OracleFixture : ::testing::Test {
  FoldedClos ft{FtreeParams{2, 4, 5}};
  Network net = build_network(ft);
  FtreeNetworkMap map{ft.params()};
  std::vector<std::uint32_t> depths =
      std::vector<std::uint32_t>(net.channel_count(), 0);

  Packet make_packet(std::uint32_t src, std::uint32_t dst) {
    Packet p;
    p.src_terminal = src;
    p.dst_terminal = dst;
    return p;
  }
};

TEST_F(OracleFixture, TerminalAlwaysInjectsUp) {
  FtreeOracle oracle(ft, UplinkPolicy::kRandom);
  const SimView view(net, depths);
  const auto ch = oracle.next_channel(view, 3, make_packet(3, 9));
  EXPECT_EQ(ch, ft.leaf_up_link(LeafId{3}).value);
}

TEST_F(OracleFixture, BottomSwitchDeliversLocalTraffic) {
  FtreeOracle oracle(ft, UplinkPolicy::kRandom);
  const SimView view(net, depths);
  // Packet for leaf 1 sitting at bottom switch 0 (leaf 1's switch).
  const auto ch =
      oracle.next_channel(view, map.bottom(BottomId{0}), make_packet(5, 1));
  EXPECT_EQ(ch, ft.leaf_down_link(LeafId{1}).value);
}

TEST_F(OracleFixture, TopSwitchDescendsTowardDestination) {
  FtreeOracle oracle(ft, UplinkPolicy::kRandom);
  const SimView view(net, depths);
  const auto ch =
      oracle.next_channel(view, map.top(TopId{2}), make_packet(0, 9));
  EXPECT_EQ(ch, ft.down_link(TopId{2}, ft.switch_of(LeafId{9})).value);
}

TEST_F(OracleFixture, TablePolicyFollowsSinglePathRouting) {
  const YuanNonblockingRouting routing(ft);
  FtreeOracle oracle(ft, UplinkPolicy::kTable, &routing);
  const SimView view(net, depths);
  const SDPair sd{LeafId{1}, LeafId{8}};
  const auto expected_top = routing.route(sd).top;
  const auto ch = oracle.next_channel(view, map.bottom(BottomId{0}),
                                      make_packet(1, 8));
  EXPECT_EQ(ch, ft.up_link(BottomId{0}, expected_top).value);
}

TEST_F(OracleFixture, TablePolicyRequiresTable) {
  EXPECT_THROW(FtreeOracle(ft, UplinkPolicy::kTable, nullptr),
               precondition_error);
}

TEST_F(OracleFixture, DModKPolicyComputesOnTheFly) {
  FtreeOracle oracle(ft, UplinkPolicy::kDModK);
  const SimView view(net, depths);
  const auto ch = oracle.next_channel(view, map.bottom(BottomId{0}),
                                      make_packet(0, 7));
  EXPECT_EQ(ch, ft.up_link(BottomId{0}, TopId{7 % 4}).value);
}

TEST_F(OracleFixture, RandomPolicyStaysAmongUplinks) {
  FtreeOracle oracle(ft, UplinkPolicy::kRandom, nullptr, 5);
  const SimView view(net, depths);
  for (int i = 0; i < 100; ++i) {
    const auto ch = oracle.next_channel(view, map.bottom(BottomId{1}),
                                        make_packet(2, 8));
    const auto& channel = net.channel(ch);
    EXPECT_EQ(channel.src, map.bottom(BottomId{1}));
    EXPECT_TRUE(map.is_top(channel.dst));
  }
}

TEST_F(OracleFixture, LeastQueuePolicyAvoidsBusyUplinks) {
  FtreeOracle oracle(ft, UplinkPolicy::kLeastQueue);
  // Load every uplink of switch 0 except top 3.
  for (std::uint32_t t = 0; t < ft.m(); ++t) {
    depths[ft.up_link(BottomId{0}, TopId{t}).value] = (t == 3) ? 0U : 5U;
  }
  const SimView view(net, depths);
  const auto ch = oracle.next_channel(view, map.bottom(BottomId{0}),
                                      make_packet(0, 9));
  EXPECT_EQ(ch, ft.up_link(BottomId{0}, TopId{3}).value);
}

TEST_F(OracleFixture, LeastQueueBreaksTiesTowardLowestIndex) {
  FtreeOracle oracle(ft, UplinkPolicy::kLeastQueue);
  const SimView view(net, depths);  // all zero
  const auto ch = oracle.next_channel(view, map.bottom(BottomId{2}),
                                      make_packet(4, 0));
  EXPECT_EQ(ch, ft.up_link(BottomId{2}, TopId{0}).value);
}

TEST_F(OracleFixture, NamesReflectPolicy) {
  EXPECT_EQ(FtreeOracle(ft, UplinkPolicy::kRandom).name(), "ftree-random");
  EXPECT_EQ(FtreeOracle(ft, UplinkPolicy::kLeastQueue).name(),
            "ftree-least-queue");
  EXPECT_EQ(FtreeOracle(ft, UplinkPolicy::kDModK).name(), "ftree-dmodk");
}

TEST(CrossbarOracleTest, RoutesThroughTheSingleSwitch) {
  const auto net = build_crossbar(4);
  std::vector<std::uint32_t> depths(net.channel_count(), 0);
  const SimView view(net, depths);
  CrossbarOracle oracle(4);
  Packet p;
  p.src_terminal = 1;
  p.dst_terminal = 3;
  EXPECT_EQ(oracle.next_channel(view, 1, p), 1U);       // up
  EXPECT_EQ(oracle.next_channel(view, 4, p), 4U + 3U);  // down to 3
}

}  // namespace
}  // namespace nbclos::sim
