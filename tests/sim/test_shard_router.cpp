/// Path-equivalence tests for the pure O(1) next-hop routers: they must
/// walk exactly the paths of the table/index routers they replace, and
/// refuse a network their arithmetic was not written for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nbclos/core/multilevel.hpp"
#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/routing/kary_updown.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/sharded.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos {
namespace {

using sim::FtreeDmodkRouter;
using sim::KaryDmodkRouter;
using sim::ShardPlan;

/// Walk `router` hop by hop from terminal `src` until the packet reaches
/// terminal `dst`; returns the channel ids in path order.
std::vector<std::uint32_t> walk(const Network& net,
                                const routing::NextHop& router,
                                std::uint32_t src, std::uint32_t dst,
                                std::uint32_t max_hops) {
  std::vector<std::uint32_t> path;
  std::uint32_t at = src;
  while (at != dst) {
    if (path.size() >= max_hops) {
      ADD_FAILURE() << "no convergence " << src << "->" << dst;
      return path;
    }
    const auto c = router.next_channel_from(at, src, dst);
    EXPECT_LT(c, net.channel_count());
    EXPECT_EQ(net.channel_src(c), at) << src << "->" << dst;
    path.push_back(c);
    at = net.channel_dst(c);
  }
  return path;
}

void expect_kary_paths_match(std::uint32_t k, std::uint32_t h) {
  const Network net = build_kary_ntree(k, h);
  const KaryTreeRouter table(net, k, h);
  const KaryDmodkRouter arith(net, k, h);
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  for (std::uint32_t s = 0; s < terminals; ++s) {
    for (std::uint32_t d = 0; d < terminals; ++d) {
      if (s == d) continue;
      const auto expect = table.route(SDPair{LeafId{s}, LeafId{d}});
      const auto got = walk(net, arith, s, d, 2 * h + 2);
      ASSERT_EQ(got.size(), expect.size()) << s << "->" << d;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[i], expect[i]) << s << "->" << d << " hop " << i;
      }
    }
  }
}

TEST(KaryDmodkRouter, MatchesTableRouterOnEveryPair3ary3tree) {
  expect_kary_paths_match(3, 3);
}

TEST(KaryDmodkRouter, MatchesTableRouterOnEveryPair4ary2tree) {
  expect_kary_paths_match(4, 2);
}

TEST(KaryDmodkRouter, MatchesTableRouterOnEveryPair2ary4tree) {
  expect_kary_paths_match(2, 4);
}

TEST(KaryDmodkRouter, RejectsMismatchedNetwork) {
  const Network net = build_kary_ntree(3, 2);
  EXPECT_THROW(KaryDmodkRouter(net, 3, 3), precondition_error);
  EXPECT_THROW(KaryDmodkRouter(net, 2, 2), precondition_error);
}

TEST(FtreeDmodkRouter, WalksValidMinimalPaths) {
  const FoldedClos ft(FtreeParams{3, 9, 5});
  const Network net = build_network(ft);
  const FtreeDmodkRouter router(ft, net);
  EXPECT_EQ(&router.network(), &net);
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      if (s == d) continue;
      const auto path = walk(net, router, s, d, FoldedClos::kMaxPathLinks);
      const bool direct =
          ft.switch_of(LeafId{s}) == ft.switch_of(LeafId{d});
      EXPECT_EQ(path.size(), direct ? 2U : 4U) << s << "->" << d;
      // d-mod-k: cross-pair uplink choice is keyed by the destination.
      if (!direct) {
        EXPECT_EQ(path[1],
                  ft.up_link(ft.switch_of(LeafId{s}), TopId{d % ft.m()}).value);
      }
    }
  }
  // The index arithmetic assumes build_network(ft)'s numbering: a
  // network of another census is refused up front.
  const FoldedClos other(FtreeParams{3, 9, 4});
  EXPECT_THROW(FtreeDmodkRouter(other, net), precondition_error);
  EXPECT_THROW(FtreeDmodkRouter(ft, build_kary_ntree(3, 2)),
               precondition_error);
}

TEST(RecursiveShardRouter, MatchesFabricRouteOnEveryPair) {
  for (const std::uint32_t levels : {2U, 3U}) {
    const MultiLevelFabric fabric(2, levels);
    const auto& net = fabric.network();
    const sim::RecursiveShardRouter router(fabric);
    EXPECT_EQ(router.name(), "multilevel-thm3");
    for (std::uint32_t s = 0; s < fabric.port_count(); ++s) {
      for (std::uint32_t d = 0; d < fabric.port_count(); ++d) {
        if (s == d) continue;
        const auto expect = fabric.route(SDPair{LeafId{s}, LeafId{d}});
        const auto got = walk(net, router, s, d, 32);
        ASSERT_EQ(got.size(), expect.size())
            << "levels=" << levels << " " << s << "->" << d;
        for (std::size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(got[i], expect[i])
              << "levels=" << levels << " " << s << "->" << d << " hop " << i;
        }
      }
    }
  }
}

TEST(RecursiveShardRouter, SelfPairHasNoRoute) {
  const MultiLevelFabric fabric(2, 2);
  const sim::RecursiveShardRouter router(fabric);
  EXPECT_EQ(router.next_channel_from(3, 3, 3), fault::kNoRoute);
}

TEST(ShardPlan, PartitionIsContiguousBalancedAndComplete) {
  const Network net = build_kary_ntree(3, 3);
  for (const std::uint32_t shards : {1U, 2U, 4U, 8U}) {
    const auto plan = ShardPlan::build(net, shards);
    ASSERT_EQ(plan.shard_count, shards);
    ASSERT_EQ(plan.vertex_begin.size(), shards + 1);
    EXPECT_EQ(plan.vertex_begin.front(), 0U);
    EXPECT_EQ(plan.vertex_begin.back(), net.vertex_count());
    for (std::uint32_t s = 0; s < shards; ++s) {
      EXPECT_LE(plan.vertex_begin[s], plan.vertex_begin[s + 1]);
    }
    // Every channel is owned by the shard of its source vertex, with
    // local ids ascending in global id order.
    std::size_t covered = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      std::uint32_t prev_local = 0;
      for (std::size_t i = 0; i < plan.shard_channels[s].size(); ++i) {
        const auto c = plan.shard_channels[s][i];
        EXPECT_EQ(plan.channel_owner[c], s);
        EXPECT_EQ(plan.channel_local[c], i);
        const auto src = net.channel_src(c);
        EXPECT_GE(src, plan.vertex_begin[s]);
        EXPECT_LT(src, plan.vertex_begin[s + 1]);
        if (i > 0) {
          EXPECT_GT(plan.channel_local[c], prev_local);
        }
        prev_local = plan.channel_local[c];
      }
      covered += plan.shard_channels[s].size();
    }
    EXPECT_EQ(covered, net.channel_count());
  }
  // Requested counts beyond the vertex count are clamped, never fatal.
  const auto clamped = ShardPlan::build(build_crossbar(2), 64);
  EXPECT_LE(clamped.shard_count, build_crossbar(2).vertex_count());
}

TEST(ShardPlan, CutIsOutChannelBalancedOnTreeAndRecursiveFabrics) {
  // The plan cuts the contiguous vertex range at equal out-channel
  // prefix shares, so no shard's owned-channel count can drift from the
  // ideal C/S share by more than one vertex's out-degree — on the k-ary
  // tree AND on the recursive multi-level construction, whose out-degree
  // profile (leaves of degree 1 next to bottom switches of degree
  // n + n^2) is exactly the skew that a vertex-count cut gets wrong.
  const MultiLevelFabric fabric(2, 3);
  const Network kary = build_kary_ntree(3, 3);
  for (const Network* net : {&kary, &fabric.network()}) {
    std::uint64_t max_degree = 0;
    for (std::uint32_t v = 0; v < net->vertex_count(); ++v) {
      max_degree = std::max<std::uint64_t>(max_degree,
                                           net->out_channels(v).size());
    }
    for (const std::uint32_t shards : {2U, 4U, 8U}) {
      const auto plan = ShardPlan::build(*net, shards);
      ASSERT_EQ(plan.shard_count, shards);
      EXPECT_EQ(plan.vertex_begin.front(), 0U);
      EXPECT_EQ(plan.vertex_begin.back(), net->vertex_count());
      const double ideal =
          static_cast<double>(net->channel_count()) / shards;
      for (std::uint32_t s = 0; s < shards; ++s) {
        EXPECT_LE(plan.vertex_begin[s], plan.vertex_begin[s + 1]);
        const auto owned =
            static_cast<double>(plan.shard_channels[s].size());
        EXPECT_LE(std::abs(owned - ideal), static_cast<double>(max_degree))
            << "shards=" << shards << " s=" << s;
      }
    }
  }
}

}  // namespace
}  // namespace nbclos
