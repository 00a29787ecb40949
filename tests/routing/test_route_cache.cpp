/// Golden tests for the route caches: the cached runs must reproduce the
/// live route() calls bit-for-bit, including degraded (flagged) fabrics
/// and the large-radix smoke instance.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/fault/degraded_routing.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/prng.hpp"

namespace nbclos {
namespace {

/// The link ids of routing.route(sd), in path order.
std::vector<std::uint32_t> live_links(const SinglePathRouting& routing,
                                      SDPair sd) {
  LinkId run[FoldedClos::kMaxPathLinks];
  const auto count = routing.ftree().links_into(routing.route(sd), run);
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(run[i].value);
  return out;
}

TEST(RouteCache, MatchesLiveRoutingOnEveryPair) {
  const FoldedClos ft(FtreeParams{3, 9, 5});
  const YuanNonblockingRouting yuan(ft);
  const auto cache = routing::RouteCache::materialize(yuan);
  ASSERT_EQ(cache.leaf_count(), ft.leaf_count());
  ASSERT_EQ(cache.link_count(), ft.link_count());
  EXPECT_FALSE(cache.any_unroutable());
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const auto run = cache.links(s, d);
      if (s == d) {
        EXPECT_TRUE(run.empty());
        continue;
      }
      const auto expect = live_links(yuan, SDPair{LeafId{s}, LeafId{d}});
      ASSERT_EQ(run.size(), expect.size()) << "pair " << s << "->" << d;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(run[i], expect[i]) << "pair " << s << "->" << d;
      }
      EXPECT_EQ(cache.flags(s, d), 0);
    }
  }
}

TEST(RouteCache, RunLengthsFollowPairKind) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting dmodk(ft);
  const auto cache = routing::RouteCache::materialize(dmodk);
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const auto run = cache.links(s, d);
      if (s == d) {
        EXPECT_EQ(run.size(), 0U);
      } else if (ft.switch_of(LeafId{s}) == ft.switch_of(LeafId{d})) {
        EXPECT_EQ(run.size(), 2U);  // leaf-up + leaf-down
      } else {
        EXPECT_EQ(run.size(), 4U);  // up through a top switch and back
      }
    }
  }
}

TEST(RouteCache, BuildFnFlagsMarkUnroutablePairs) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const DModKRouting dmodk(ft);
  // Declare every pair out of leaf 0 unroutable; everything else routes.
  const routing::RouteCache cache(
      ft, [&](SDPair sd, FtreePath& path) -> std::uint8_t {
        if (sd.src.value == 0) return routing::RouteCache::kUnroutable;
        dmodk.route_into(sd, path);
        return sd.dst.value == 1 ? routing::RouteCache::kFallback
                                 : std::uint8_t{0};
      });
  EXPECT_TRUE(cache.any_unroutable());
  for (std::uint32_t d = 1; d < ft.leaf_count(); ++d) {
    EXPECT_TRUE(cache.unroutable(0, d));
    EXPECT_TRUE(cache.links(0, d).empty());
  }
  EXPECT_FALSE(cache.unroutable(2, 0));
  EXPECT_EQ(cache.flags(2, 1), routing::RouteCache::kFallback);
  EXPECT_FALSE(cache.links(2, 1).empty());
}

TEST(RouteCache, StoresThreeBytesPerPair) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting dmodk(ft);
  const auto cache = routing::RouteCache::materialize(dmodk);
  // One uint16_t top id plus one flag byte per ordered pair.
  EXPECT_EQ(cache.bytes(), 3 * cache.pair_count());
}

TEST(RouteCache, RejectsTopIdsBeyondSixteenBits) {
  // Tiny n and r: the check must fire before any per-pair array exists.
  const FoldedClos too_wide(FtreeParams{1, routing::RouteCache::kTopLimit, 2});
  const auto never = [](SDPair, FtreePath&) -> std::uint8_t {
    ADD_FAILURE() << "build function called on a rejected topology";
    return 0;
  };
  EXPECT_THROW(routing::RouteCache(too_wide, never), precondition_error);
  const FoldedClos widest(
      FtreeParams{1, routing::RouteCache::kTopLimit - 1, 2});
  const DModKRouting dmodk(widest);
  EXPECT_EQ(routing::RouteCache::materialize(dmodk).leaf_count(), 2U);
}

TEST(RouteCache, DegradedCacheMatchesTryRoute) {
  // ftree(2+4, 4) with failures chosen to produce every pair encoding:
  // direct, cross on the primary top, cross on a fallback top, and
  // unroutable (a dead leaf link, and a bottom switch with no live up).
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const Network net = build_network(ft);
  fault::DegradedView view(net);
  view.fail_channel(ft.leaf_down_link(LeafId{5}).value);
  for (std::uint32_t t = 0; t < ft.m(); ++t) {
    view.fail_channel(ft.up_link(BottomId{1}, TopId{t}).value);
  }
  view.fail_channel(ft.up_link(BottomId{2}, TopId{1}).value);
  view.fail_channel(ft.down_link(TopId{2}, BottomId{3}).value);
  const fault::DegradedYuanRouting degraded(ft, view);

  // Built exactly the way run_fault_sweep builds its per-level cache.
  const routing::RouteCache cache(
      ft, [&](SDPair sd, FtreePath& path) -> std::uint8_t {
        const auto routed = degraded.try_route(sd);
        if (!routed.has_value()) return routing::RouteCache::kUnroutable;
        path = *routed;
        std::uint8_t bits = 0;
        if (!routed->direct && degraded.uses_fallback(sd)) {
          bits |= routing::RouteCache::kFallback;
        }
        return bits;
      });

  std::uint32_t direct = 0;
  std::uint32_t cross = 0;
  std::uint32_t fallback = 0;
  std::uint32_t unroutable = 0;
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const auto run = cache.links(s, d);
      if (s == d) {
        EXPECT_TRUE(run.empty());
        EXPECT_EQ(cache.flags(s, d), 0);
        continue;
      }
      const SDPair sd{LeafId{s}, LeafId{d}};
      const auto routed = degraded.try_route(sd);
      EXPECT_EQ(cache.unroutable(s, d), !routed.has_value())
          << "pair " << s << "->" << d;
      if (!routed.has_value()) {
        EXPECT_TRUE(run.empty()) << "pair " << s << "->" << d;
        ++unroutable;
        continue;
      }
      LinkId expect[FoldedClos::kMaxPathLinks];
      const auto count = ft.links_into(*routed, expect);
      ASSERT_EQ(run.size(), count) << "pair " << s << "->" << d;
      for (std::uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(run[i], expect[i].value) << "pair " << s << "->" << d;
      }
      const bool falls_back = !routed->direct && degraded.uses_fallback(sd);
      EXPECT_EQ(cache.flags(s, d),
                falls_back ? routing::RouteCache::kFallback : std::uint8_t{0})
          << "pair " << s << "->" << d;
      if (routed->direct) {
        ++direct;
      } else if (falls_back) {
        ++fallback;
      } else {
        ++cross;
      }
    }
  }
  EXPECT_TRUE(cache.any_unroutable());
  EXPECT_GT(direct, 0U);
  EXPECT_GT(cross, 0U);
  EXPECT_GT(fallback, 0U);
  EXPECT_GT(unroutable, 0U);
}

TEST(ChannelRouteCache, NextHopWalksThePrecomputedRun) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const Network net = build_network(ft);
  const YuanNonblockingRouting yuan(ft);
  // channel id == LinkId by the FtreeNetworkMap contract.
  const auto cache = routing::ChannelRouteCache::materialize(net, yuan);
  ASSERT_EQ(cache->terminal_count(), ft.leaf_count());
  EXPECT_EQ(cache->name(), "route-cache");
  const auto terminals = net.terminals();
  for (std::uint32_t s = 0; s < cache->terminal_count(); ++s) {
    for (std::uint32_t d = 0; d < cache->terminal_count(); ++d) {
      const auto run = cache->channels(s, d);
      if (s == d) {
        EXPECT_TRUE(run.empty());
        continue;
      }
      const auto live = live_links(yuan, SDPair{LeafId{s}, LeafId{d}});
      EXPECT_EQ(std::vector<std::uint32_t>(run.begin(), run.end()), live);
      // Walking next_channel_from hop by hop reproduces the stored run
      // and ends at the destination terminal.
      std::uint32_t at = terminals[s];
      for (const auto expected : run) {
        const auto c = cache->next_channel_from(at, terminals[s], terminals[d]);
        EXPECT_EQ(c, expected);
        at = net.channel_dst(c);
      }
      EXPECT_EQ(at, terminals[d]);
    }
  }
}

TEST(ChannelRouteCache, RejectsBrokenChains) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const Network net = build_network(ft);
  EXPECT_THROW(routing::ChannelRouteCache(
                   net,
                   [&](SDPair) {
                     // A single down-link never starts at a terminal.
                     return std::vector<std::uint32_t>{
                         ft.leaf_down_link(LeafId{0}).value};
                   }),
               precondition_error);
  EXPECT_THROW(
      routing::ChannelRouteCache(
          net, [&](SDPair) { return std::vector<std::uint32_t>{}; }),
      precondition_error);
}

// --- large-radix smoke: ftree(8+64, 48) ---------------------------------

TEST(RouteCacheScale, Radix48RoutesAndAuditAgree) {
  const FoldedClos ft(FtreeParams{8, 64, 48});  // 384 leafs, 48 switches
  const YuanNonblockingRouting yuan(ft);
  const auto cache = routing::RouteCache::materialize(yuan);
  ASSERT_EQ(cache.leaf_count(), 384U);
  EXPECT_FALSE(cache.any_unroutable());

  // Spot-check the cached runs against live routing on a deterministic
  // sample of pairs (the full 384^2 sweep is covered at small radix).
  Xoshiro256 rng(48);
  for (int probe = 0; probe < 2000; ++probe) {
    const auto s = static_cast<std::uint32_t>(rng.below(ft.leaf_count()));
    const auto d = static_cast<std::uint32_t>(rng.below(ft.leaf_count()));
    if (s == d) continue;
    const auto run = cache.links(s, d);
    const auto expect = live_links(yuan, SDPair{LeafId{s}, LeafId{d}});
    ASSERT_EQ(run.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(run[i], expect[i]);
    }
  }

  // Every cached link id stays inside the fabric.
  for (std::uint32_t s = 0; s < ft.leaf_count(); s += 37) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      for (const auto link : cache.links(s, d)) {
        ASSERT_LT(link, ft.link_count());
      }
    }
  }

  // m = 64 >= n^2 = 64: Theorem 3 applies and the Lemma 1 audit must
  // certify the routing nonblocking at this radix.
  EXPECT_TRUE(lemma1_audit(yuan).empty());
}

}  // namespace
}  // namespace nbclos
