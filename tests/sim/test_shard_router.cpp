/// Path-equivalence tests for the pure O(1) next-hop routers: they must
/// walk exactly the paths of the table/index routers they replace, and
/// refuse a network their arithmetic was not written for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
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

TEST(ShardPlan, EveryVertexHasOneOwnerAndChannelsFollowTheirSource) {
  const MultiLevelFabric fabric(2, 3);
  const Network kary = build_kary_ntree(3, 3);
  for (const Network* net : {&kary, &fabric.network()}) {
    const auto terminals = static_cast<std::uint32_t>(net->terminals().size());
    for (const std::uint32_t shards : {1U, 2U, 3U, 4U, 8U}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const auto plan = ShardPlan::build(*net, shards);
      ASSERT_EQ(plan.shard_count, shards);
      // Exactly one owner per vertex.
      ASSERT_EQ(plan.vertex_owner.size(), net->vertex_count());
      for (std::uint32_t v = 0; v < net->vertex_count(); ++v) {
        EXPECT_LT(plan.shard_of_vertex(v), shards);
      }
      // Terminal ranges are contiguous, in shard order, and cover [0, T);
      // each range holds exactly the terminals its shard owns.
      ASSERT_EQ(plan.terminal_begin.size(), shards + 1);
      EXPECT_EQ(plan.terminal_begin.front(), 0U);
      EXPECT_EQ(plan.terminal_begin.back(), terminals);
      for (std::uint32_t s = 0; s < shards; ++s) {
        EXPECT_LE(plan.terminal_begin[s], plan.terminal_begin[s + 1]);
        for (std::uint32_t t = plan.terminal_begin[s];
             t < plan.terminal_begin[s + 1]; ++t) {
          EXPECT_EQ(plan.shard_of_vertex(t), s);
        }
      }
      // Every channel is owned by the shard of its source vertex, with
      // local ids ascending in global id order.
      std::size_t covered = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const auto& owned = plan.shard_channels[s];
        for (std::size_t i = 0; i < owned.size(); ++i) {
          const auto c = owned[i];
          EXPECT_EQ(plan.channel_owner[c], s);
          EXPECT_EQ(plan.shard_of_vertex(net->channel_src(c)), s);
          EXPECT_EQ(plan.channel_local[c], i);
          if (i > 0) {
            EXPECT_GT(c, owned[i - 1]);
          }
        }
        covered += owned.size();
      }
      EXPECT_EQ(covered, net->channel_count());
    }
  }
  // Requested counts beyond the vertex count are clamped, never fatal.
  const Network crossbar = build_crossbar(2);
  const auto clamped = ShardPlan::build(crossbar, 64);
  EXPECT_LE(clamped.shard_count, crossbar.vertex_count());
  EXPECT_EQ(clamped.terminal_begin.back(), crossbar.terminals().size());
}

TEST(ShardPlan, EveryLevelIsCutAtEqualOutChannelShares) {
  // Shard s owns the s-th slice of every level, cut at equal out-channel
  // prefix shares, so within each level no shard's owned-channel count
  // drifts from the level's C/S share by more than one vertex's
  // out-degree — on the k-ary tree AND on the recursive multi-level
  // construction, whose levels mix degree-1 leaves with bottom switches
  // of degree n + n^2.
  const MultiLevelFabric fabric(2, 3);
  const Network kary = build_kary_ntree(3, 3);
  for (const Network* net : {&kary, &fabric.network()}) {
    std::uint32_t levels = 0;
    for (std::uint32_t v = 0; v < net->vertex_count(); ++v) {
      levels = std::max(levels, net->vertex(v).level + 1);
    }
    std::vector<std::uint64_t> level_channels(levels, 0);
    std::vector<std::uint64_t> level_max_degree(levels, 0);
    for (std::uint32_t v = 0; v < net->vertex_count(); ++v) {
      const auto level = net->vertex(v).level;
      const auto degree = net->out_channels(v).size();
      level_channels[level] += degree;
      level_max_degree[level] =
          std::max<std::uint64_t>(level_max_degree[level], degree);
    }
    for (const std::uint32_t shards : {2U, 4U, 8U}) {
      const auto plan = ShardPlan::build(*net, shards);
      ASSERT_EQ(plan.shard_count, shards);
      // owned[level][shard]: out-channels of the shard's slice.
      std::vector<std::vector<std::uint64_t>> owned(
          levels, std::vector<std::uint64_t>(shards, 0));
      for (std::uint32_t v = 0; v < net->vertex_count(); ++v) {
        owned[net->vertex(v).level][plan.shard_of_vertex(v)] +=
            net->out_channels(v).size();
      }
      for (std::uint32_t level = 0; level < levels; ++level) {
        const double ideal =
            static_cast<double>(level_channels[level]) / shards;
        for (std::uint32_t s = 0; s < shards; ++s) {
          EXPECT_LE(std::abs(static_cast<double>(owned[level][s]) - ideal),
                    static_cast<double>(level_max_degree[level]))
              << "shards=" << shards << " level=" << level << " s=" << s;
        }
      }
    }
  }
}

}  // namespace
}  // namespace nbclos
