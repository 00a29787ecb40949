/// Path-equivalence tests for the pure O(1) next-hop routers: they must
/// walk exactly the paths of the routing rules they implement, and
/// refuse a network their arithmetic was not written for.  Covers
/// sim::KaryDmodkRouter, routing::TopChoiceNextHop and ShardPlan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "nbclos/core/multilevel.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/sharded.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos {
namespace {

using routing::walk_path;
using sim::KaryDmodkRouter;
using sim::ShardPlan;

/// The walked path of (src, dst), by value.
std::vector<std::uint32_t> walk(const routing::NextHop& router,
                                std::uint32_t src, std::uint32_t dst) {
  std::vector<std::uint32_t> path;
  walk_path(router, src, dst, path);
  return path;
}

/// Reference d-mod-k route table of build_kary_ntree(k, h), from the
/// digit rule alone: climb from the source's edge switch to the nearest
/// common ancestor (NCA) level, setting ascent digit l to the
/// destination's digit l, then descend to the destination's edge switch.
/// Switch (level, pos) is vertex T + level * k^(h-1) + pos; channels are
/// found by their endpoints, not by the router's numbering formulas.
class ReferenceTableRouter {
 public:
  ReferenceTableRouter(const Network& net, std::uint32_t k, std::uint32_t h)
      : net_(&net), k_(k), h_(h),
        terminals_(static_cast<std::uint32_t>(net.terminals().size())) {}

  [[nodiscard]] std::uint32_t nca_level(std::uint32_t src,
                                        std::uint32_t dst) const {
    std::uint32_t level = 0;
    for (std::uint32_t l = 0, p = 1; l + 1 < h_; ++l, p *= k_) {
      if (digit(src / k_, p) != digit(dst / k_, p)) level = l + 1;
    }
    return level;
  }

  [[nodiscard]] std::vector<std::uint32_t> route(std::uint32_t src,
                                                 std::uint32_t dst) const {
    const std::uint32_t climb = nca_level(src, dst);
    const std::uint32_t target = dst / k_;
    std::uint32_t pos = src / k_;
    std::vector<std::uint32_t> vertices{src, switch_at(0, pos)};
    for (std::uint32_t l = 0, p = 1; l < climb; ++l, p *= k_) {
      pos = pos - digit(pos, p) * p + digit(target, p) * p;
      vertices.push_back(switch_at(l + 1, pos));
    }
    EXPECT_EQ(pos, target);  // the apex already sits above dst's edge
    for (std::uint32_t l = climb; l > 0; --l) {
      vertices.push_back(switch_at(l - 1, pos));
    }
    vertices.push_back(dst);
    std::vector<std::uint32_t> path;
    for (std::size_t i = 1; i < vertices.size(); ++i) {
      const auto c = net_->find_channel(vertices[i - 1], vertices[i]);
      EXPECT_TRUE(c.has_value());
      path.push_back(c.value_or(0));
    }
    return path;
  }

 private:
  [[nodiscard]] std::uint32_t digit(std::uint32_t value,
                                    std::uint32_t place) const {
    return (value / place) % k_;
  }
  [[nodiscard]] std::uint32_t switch_at(std::uint32_t level,
                                        std::uint32_t pos) const {
    return terminals_ + level * (terminals_ / k_) + pos;
  }

  const Network* net_;
  std::uint32_t k_;
  std::uint32_t h_;
  std::uint32_t terminals_;
};

void expect_kary_paths_match(std::uint32_t k, std::uint32_t h) {
  const Network net = build_kary_ntree(k, h);
  const ReferenceTableRouter table(net, k, h);
  const KaryDmodkRouter arith(net, k, h);
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  for (std::uint32_t s = 0; s < terminals; ++s) {
    for (std::uint32_t d = 0; d < terminals; ++d) {
      if (s == d) continue;
      EXPECT_EQ(walk(arith, s, d), table.route(s, d)) << s << "->" << d;
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

TEST(KaryUpDown, NcaLevels) {
  // A walk climbs exactly to the NCA level: 2 terminal links + 2 * climb.
  const auto net = build_kary_ntree(2, 3);  // 8 terminals
  const KaryDmodkRouter router(net, 2, 3);
  const auto climb = [&](std::uint32_t s, std::uint32_t d) {
    return (walk(router, s, d).size() - 2) / 2;
  };
  // Same edge switch (terminals 0, 1).
  EXPECT_EQ(climb(0, 1), 0U);
  // Switch positions 0 (00) and 1 (01): differ in digit 0 -> level 1.
  EXPECT_EQ(climb(0, 2), 1U);
  // Positions 0 (00) and 2 (10): differ in digit 1 -> level 2.
  EXPECT_EQ(climb(0, 4), 2U);
  EXPECT_EQ(climb(1, 7), 2U);
  // Symmetry.
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      if (s == d) continue;
      EXPECT_EQ(climb(s, d), climb(d, s));
    }
  }
}

TEST(KaryUpDown, DeterministicRoutesAreWellFormed) {
  // walk_path checks that every hop leaves the vertex the walk is at and
  // that the walk ends at the destination terminal.
  const auto net = build_kary_ntree(3, 2);  // 9 terminals
  const KaryDmodkRouter router(net, 3, 2);
  for (std::uint32_t s = 0; s < 9; ++s) {
    for (std::uint32_t d = 0; d < 9; ++d) {
      if (s == d) continue;
      // Length: 2 (terminal links) + 2 * climb, climb 1 off the edge.
      const std::size_t climb = s / 3 == d / 3 ? 0 : 1;
      EXPECT_EQ(walk(router, s, d).size(), 2U + 2U * climb);
    }
  }
}

TEST(KaryUpDown, DeterministicRoutingConvergesPerDestination) {
  // Destination-keyed ascent: every source reaches a destination through
  // the same topmost switch (the D-mod-K convergence property).
  const auto net = build_kary_ntree(2, 3);
  const KaryDmodkRouter router(net, 2, 3);
  const std::uint32_t dst = 5;
  std::set<std::uint32_t> top_vertices;
  for (std::uint32_t s = 0; s < 8; ++s) {
    if (s == dst) continue;
    const auto path = walk(router, s, dst);
    if (path.size() < 6) continue;  // not full height
    // Vertex after the climb: dst of the second-level uplink.
    top_vertices.insert(net.channel_dst(path[2]));
  }
  EXPECT_EQ(top_vertices.size(), 1U);
}

TEST(KaryUpDown, HeightOneIsDirect) {
  const auto net = build_kary_ntree(4, 1);
  const KaryDmodkRouter router(net, 4, 1);
  EXPECT_EQ(walk(router, 0, 3).size(), 2U);
}

TEST(KaryUpDown, RejectsMismatchedNetwork) {
  const auto net = build_kary_ntree(2, 3);
  EXPECT_THROW(KaryDmodkRouter(net, 2, 2), precondition_error);
  EXPECT_THROW(KaryDmodkRouter(net, 3, 3), precondition_error);
}

TEST(KaryUpDown, RejectsBadPairs) {
  // A self pair walks nowhere; an endpoint that is a switch (vertex 4)
  // or no vertex at all is refused.
  const auto net = build_kary_ntree(2, 2);
  const KaryDmodkRouter router(net, 2, 2);
  EXPECT_TRUE(walk(router, 0, 0).empty());
  std::vector<std::uint32_t> path;
  EXPECT_THROW(walk_path(router, 0, 4, path), precondition_error);
  EXPECT_THROW(walk_path(router, 0, 99, path), precondition_error);
}

TEST(KaryUpDown, SimulatesUnderUniformTraffic) {
  // End-to-end: the up/down routes drive the packet simulator on a
  // k-ary n-tree at moderate uniform load without loss of progress.
  const auto net = build_kary_ntree(2, 3);
  const KaryDmodkRouter router(net, 2, 3);
  sim::NextHopOracle oracle(router);
  const auto traffic = sim::TrafficPattern::uniform(8);
  sim::SimConfig config;
  config.injection_rate = 0.3;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  sim::PacketSim simulator(net, oracle, traffic, config);
  const auto result = simulator.run();
  EXPECT_NEAR(result.accepted_throughput, 0.3, 0.05);
}

TEST(TopChoiceNextHop, DModKWalksValidMinimalPaths) {
  const FoldedClos ft(FtreeParams{3, 9, 5});
  const Network net = build_network(ft);
  const auto dmodk = std::make_shared<const DModKRouting>(ft);
  const routing::TopChoiceNextHop router(dmodk, net);
  EXPECT_EQ(&router.network(), &net);
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      if (s == d) continue;
      const auto path = walk(router, s, d);
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
}

/// Every single-path routing, through the adapter, answers each vertex of
/// each SD pair's path with the channel its materialized cache stores —
/// and a network not built from the routing's ftree is refused.
TEST(TopChoiceNextHop, MatchesChannelRouteCacheOnEveryVertexOfEveryPath) {
  for (const auto params : {FtreeParams{2, 4, 5}, FtreeParams{3, 9, 4},
                            FtreeParams{4, 16, 8}}) {
    const FoldedClos ft(params);
    const Network net = build_network(ft);
    const std::vector<std::shared_ptr<const SinglePathRouting>> routings = {
        std::make_shared<const YuanNonblockingRouting>(ft),
        std::make_shared<const DModKRouting>(ft),
        std::make_shared<const DModKSwitchRouting>(ft),
        std::make_shared<const SModKRouting>(ft),
        std::make_shared<const RandomFixedRouting>(ft, 11)};
    for (const auto& routing : routings) {
      const std::string label = routing->name() + " on r=" +
                                std::to_string(ft.r()) + ", n=" +
                                std::to_string(ft.n());
      const routing::TopChoiceNextHop adapter(routing, net);
      EXPECT_EQ(&adapter.network(), &net) << label;
      EXPECT_EQ(adapter.bytes(), 0U) << label;
      EXPECT_EQ(adapter.name(), routing->name()) << label;
      const auto cache = routing::ChannelRouteCache::materialize(net, *routing);
      for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
        for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
          if (s == d) continue;
          const auto run = cache->channels(s, d);
          ASSERT_FALSE(run.empty()) << label;
          for (const auto c : run) {
            ASSERT_EQ(adapter.next_channel_from(net.channel_src(c), s, d), c)
                << label << ": " << s << "->" << d << " at vertex "
                << net.channel_src(c);
          }
        }
      }
      // The index arithmetic assumes build_network(ft)'s numbering: a
      // network of another census is refused up front.
      const FoldedClos other(FtreeParams{ft.n(), ft.m(), ft.r() + 1});
      EXPECT_THROW(routing::TopChoiceNextHop(routing, build_network(other)),
                   precondition_error)
          << label;
      EXPECT_THROW(routing::TopChoiceNextHop(routing, build_kary_ntree(3, 2)),
                   precondition_error)
          << label;
    }
  }
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
