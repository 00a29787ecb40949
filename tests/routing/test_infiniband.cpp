#include "nbclos/routing/infiniband.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

TEST(Infiniband, LidAssignmentRoundTrips) {
  const FoldedClos ft(FtreeParams{3, 9, 7});
  const InfinibandFabric fabric(ft);
  EXPECT_EQ(fabric.lids_per_leaf(), 3U);
  EXPECT_EQ(fabric.lid_count(), 63U);
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const auto lid = fabric.lid_for({LeafId{s}, LeafId{d}});
      EXPECT_EQ(fabric.leaf_of(lid).value, d);
      EXPECT_EQ(fabric.index_of(lid), ft.local_of(LeafId{s}));
    }
  }
}

TEST(Infiniband, RequiresTheoremThreeRegime) {
  const FoldedClos small(FtreeParams{3, 8, 7});
  EXPECT_THROW(InfinibandFabric{small}, precondition_error);
}

TEST(Infiniband, LftForwardingReproducesYuanPathsExactly) {
  // The whole point of the multiple-LID construction: pure
  // destination-based forwarding realizes the source-dependent (i, j)
  // routing.  Channel-by-channel equality on every SD pair.
  const FoldedClos ft(FtreeParams{3, 9, 8});
  const InfinibandFabric fabric(ft);
  const YuanNonblockingRouting routing(ft);
  std::vector<std::uint32_t> lft_path;
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      if (s == d) continue;
      const SDPair sd{LeafId{s}, LeafId{d}};
      routing::walk_path(fabric, s, d, lft_path);
      std::vector<std::uint32_t> expected;
      for (const auto link : ft.links_of(routing.route(sd))) {
        expected.push_back(link.value);
      }
      EXPECT_EQ(lft_path, expected) << "s=" << s << " d=" << d;
    }
  }
}

TEST(Infiniband, ForwardedPathsAreWellFormed) {
  // The fabric's graph is build_network(ftree), and walk_path checks that
  // every forwarded hop leaves the vertex the packet is at and that the
  // walk ends at the destination: 2 hops within a switch, 4 across.
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const InfinibandFabric fabric(ft);
  const auto net = build_network(ft);
  EXPECT_EQ(fabric.network().vertex_count(), net.vertex_count());
  EXPECT_EQ(fabric.network().channel_count(), net.channel_count());
  EXPECT_EQ(fabric.name(), "infiniband-lft");
  std::vector<std::uint32_t> path;
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      if (s == d) continue;
      routing::walk_path(fabric, s, d, path);
      const bool local = ft.switch_of(LeafId{s}) == ft.switch_of(LeafId{d});
      EXPECT_EQ(path.size(), local ? 2U : 4U) << s << "->" << d;
    }
  }
}

TEST(Infiniband, SingleLidPerDestinationCannotExpressYuan) {
  // Sanity for the motivation: with ONE address per destination, a
  // bottom switch must send all traffic for d through one uplink, so two
  // sources with different local indices cannot take different tops —
  // check the Theorem 3 assignment really needs both coordinates.
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  const SDPair a{ft.leaf(BottomId{0}, 0), ft.leaf(BottomId{2}, 1)};
  const SDPair b{ft.leaf(BottomId{0}, 1), ft.leaf(BottomId{2}, 1)};
  EXPECT_NE(routing.route(a).top, routing.route(b).top);
}

TEST(Infiniband, ForwardRejectsTerminalVertices) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const InfinibandFabric fabric(ft);
  EXPECT_THROW((void)fabric.forward(/*vertex=*/0, Lid{0}),
               precondition_error);
  EXPECT_THROW((void)fabric.forward(ft.leaf_count(), Lid{9999}),
               precondition_error);
}

TEST(Infiniband, LftCostAccounting) {
  const FoldedClos ft(FtreeParams{4, 16, 20});
  const InfinibandFabric fabric(ft);
  // n LIDs per leaf: the LMC cost is a factor-n larger LFT.
  EXPECT_EQ(fabric.lft_entries_per_switch(), 80U * 4U);
  // Every one of the r + m switches holds a full LFT of 32-bit entries.
  EXPECT_EQ(fabric.bytes(), (20U + 16U) * 80U * 4U * 4U);
}

}  // namespace
}  // namespace nbclos
