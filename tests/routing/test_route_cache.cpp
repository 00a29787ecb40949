/// Golden tests for the route caches: the cached codes and channel runs
/// must reproduce the live route() calls bit-for-bit, including degraded
/// fabrics (fault sweep levels) and the large-radix smoke instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/fault/degraded_routing.hpp"
#include "nbclos/fault/failure_model.hpp"
#include "nbclos/obs/metrics.hpp"
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

/// The code a RouteCache holds for routing.route(sd).
std::uint16_t live_code(const SinglePathRouting& routing, SDPair sd) {
  const auto path = routing.route(sd);
  return path.direct ? routing::RouteCache::kDirect
                     : static_cast<std::uint16_t>(path.top.value);
}

TEST(RouteCache, MatchesLiveRoutingOnEveryPair) {
  const FoldedClos ft(FtreeParams{3, 9, 5});
  const YuanNonblockingRouting yuan(ft);
  const auto cache = routing::RouteCache::materialize(yuan);
  ASSERT_EQ(cache.leaf_count(), ft.leaf_count());
  EXPECT_FALSE(cache.any_unroutable());
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const auto expect = s == d ? routing::RouteCache::kEmpty
                                 : live_code(yuan, SDPair{LeafId{s}, LeafId{d}});
      EXPECT_EQ(cache.top(s, d), expect) << "pair " << s << "->" << d;
      EXPECT_EQ(cache.tops()[std::size_t{s} * ft.leaf_count() + d], expect);
    }
  }
}

TEST(RouteCache, CodesFollowPairKind) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting dmodk(ft);
  const auto cache = routing::RouteCache::materialize(dmodk);
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const auto top = cache.top(s, d);
      if (s == d) {
        EXPECT_EQ(top, routing::RouteCache::kEmpty);
      } else if (ft.switch_of(LeafId{s}) == ft.switch_of(LeafId{d})) {
        EXPECT_EQ(top, routing::RouteCache::kDirect);  // leaf links only
      } else {
        EXPECT_LT(top, ft.m());  // up through a top switch and back
      }
    }
  }
}

TEST(RouteCache, MaterializeMatchesTheGenericBuilder) {
  // n = 1 makes every bottom-switch block a single leaf.
  for (const FtreeParams params :
       {FtreeParams{1, 1, 4}, FtreeParams{2, 4, 5}, FtreeParams{3, 9, 4}}) {
    const FoldedClos ft(params);
    const YuanNonblockingRouting yuan(ft);
    const DModKRouting dmodk(ft);
    const RandomFixedRouting random_fixed(ft, 5);
    const std::vector<const SinglePathRouting*> routings{&yuan, &dmodk,
                                                         &random_fixed};
    for (const auto* routing : routings) {
      SCOPED_TRACE(routing->name());
      const auto fast = routing::RouteCache::materialize(*routing);
      const auto generic = routing::RouteCache::build(
          ft, [&](SDPair sd) { return live_code(*routing, sd); });
      ASSERT_EQ(fast.bytes(), generic.bytes());
      EXPECT_FALSE(fast.any_unroutable());
      EXPECT_TRUE(std::equal(fast.tops(), fast.tops() + fast.pair_count(),
                             generic.tops()));
      for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
        EXPECT_EQ(fast.top(s, s), routing::RouteCache::kEmpty);
      }
    }
  }
}

TEST(RouteCache, BuilderMarksUnroutablePairsEmpty) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const DModKRouting dmodk(ft);
  // Declare every pair out of leaf 0 unroutable; everything else routes.
  const auto cache = routing::RouteCache::build(ft, [&](SDPair sd) {
    return sd.src.value == 0 ? routing::RouteCache::kEmpty
                             : live_code(dmodk, sd);
  });
  EXPECT_TRUE(cache.any_unroutable());
  for (std::uint32_t d = 1; d < ft.leaf_count(); ++d) {
    EXPECT_EQ(cache.top(0, d), routing::RouteCache::kEmpty);
  }
  EXPECT_EQ(cache.top(2, 0), live_code(dmodk, {LeafId{2}, LeafId{0}}));
  EXPECT_EQ(cache.top(2, 1), live_code(dmodk, {LeafId{2}, LeafId{1}}));
}

TEST(RouteCache, StoresTwoBytesPerPair) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting dmodk(ft);
  const auto cache = routing::RouteCache::materialize(dmodk);
  // One uint16_t code per ordered pair, nothing else.
  EXPECT_EQ(cache.bytes(), 2 * cache.pair_count());
  // 512 leaves: 524,288 bytes.
  const FoldedClos verify_ftree(FtreeParams{8, 64, 64});
  EXPECT_EQ(routing::RouteCache::materialize(DModKRouting(verify_ftree))
                .bytes(),
            524'288U);
}

TEST(RouteCache, BytesGaugeCountsOnlyLiveTables) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& gauge = obs::metrics().gauge("route_cache.bytes");
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting dmodk(ft);
  const Network net = build_network(ft);
  // Two tables, one after the other: the gauge holds the live one and
  // returns to 0; its max is one table, not the sum of builds.
  gauge.reset();
  std::int64_t one = 0;
  for (int round = 0; round < 2; ++round) {
    std::optional<routing::RouteCache> held;
    held.emplace(routing::RouteCache::materialize(dmodk));  // moved in
    one = static_cast<std::int64_t>(held->bytes());
    EXPECT_EQ(gauge.value(), one);
  }
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.max(), one);
  gauge.reset();
  for (int round = 0; round < 2; ++round) {
    const auto cache = routing::ChannelRouteCache::materialize(net, dmodk);
    one = static_cast<std::int64_t>(cache->bytes());
    EXPECT_EQ(gauge.value(), one);
  }
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.max(), one);
}

TEST(RouteCache, RejectsTopIdsBeyondSixteenBits) {
  // Tiny n and r: the check must fire before any per-pair array exists.
  const FoldedClos too_wide(FtreeParams{1, routing::RouteCache::kTopLimit, 2});
  const auto never = [](SDPair) -> std::uint16_t {
    ADD_FAILURE() << "code function called on a rejected topology";
    return routing::RouteCache::kEmpty;
  };
  EXPECT_THROW((void)routing::RouteCache::build(too_wide, never),
               precondition_error);
  const FoldedClos widest(
      FtreeParams{1, routing::RouteCache::kTopLimit - 1, 2});
  const DModKRouting dmodk(widest);
  EXPECT_EQ(routing::RouteCache::materialize(dmodk).leaf_count(), 2U);
}

/// The fault sweep's per-level cache (fault/sweep.cpp): kEmpty where
/// try_route finds no live path.
routing::RouteCache degraded_cache(const FoldedClos& ft,
                                   const fault::DegradedYuanRouting& degraded) {
  return routing::RouteCache::build(ft, [&](SDPair sd) -> std::uint16_t {
    const auto routed = degraded.try_route(sd);
    if (!routed.has_value()) return routing::RouteCache::kEmpty;
    return routed->direct ? routing::RouteCache::kDirect
                          : static_cast<std::uint16_t>(routed->top.value);
  });
}

struct PairKinds {
  std::uint32_t direct = 0;
  std::uint32_t cross = 0;
  std::uint32_t fallback = 0;
  std::uint32_t unroutable = 0;
};

/// Every pair of `degraded`'s cache against try_route: the kEmpty pairs
/// are exactly the ones it rejects, every other code is its path, and
/// the fallback the sweep derives from a code (a cross pair off its
/// Theorem 3 top) equals uses_fallback.
PairKinds expect_cache_matches_try_route(
    const FoldedClos& ft, const fault::DegradedYuanRouting& degraded) {
  const auto cache = degraded_cache(ft, degraded);
  PairKinds kinds;
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const auto code = cache.top(s, d);
      if (s == d) {
        EXPECT_EQ(code, routing::RouteCache::kEmpty);
        continue;
      }
      const SDPair sd{LeafId{s}, LeafId{d}};
      const auto routed = degraded.try_route(sd);
      EXPECT_EQ(code == routing::RouteCache::kEmpty, !routed.has_value())
          << "pair " << s << "->" << d;
      if (!routed.has_value()) {
        ++kinds.unroutable;
        continue;
      }
      EXPECT_EQ(code, routed->direct ? routing::RouteCache::kDirect
                                     : routed->top.value)
          << "pair " << s << "->" << d;
      const bool derived = code != routing::RouteCache::kDirect &&
                           code != degraded.primary_top(sd).value;
      const bool falls_back = !routed->direct && degraded.uses_fallback(sd);
      EXPECT_EQ(derived, falls_back) << "pair " << s << "->" << d;
      if (routed->direct) {
        ++kinds.direct;
      } else if (falls_back) {
        ++kinds.fallback;
      } else {
        ++kinds.cross;
      }
    }
  }
  EXPECT_EQ(cache.any_unroutable(), kinds.unroutable > 0);
  return kinds;
}

TEST(RouteCache, DegradedCacheMatchesTryRoute) {
  // ftree(2+4, 4) with failures chosen to produce every pair encoding:
  // direct, cross on the primary top, cross on a fallback top, and
  // unroutable (a dead leaf link, and a bottom switch with no live up).
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const Network net = build_network(ft);
  {
    fault::DegradedView view(net);
    view.fail_channel(ft.leaf_down_link(LeafId{5}).value);
    for (std::uint32_t t = 0; t < ft.m(); ++t) {
      view.fail_channel(ft.up_link(BottomId{1}, TopId{t}).value);
    }
    view.fail_channel(ft.up_link(BottomId{2}, TopId{1}).value);
    view.fail_channel(ft.down_link(TopId{2}, BottomId{3}).value);
    const fault::DegradedYuanRouting degraded(ft, view);
    const auto kinds = expect_cache_matches_try_route(ft, degraded);
    EXPECT_GT(kinds.direct, 0U);
    EXPECT_GT(kinds.cross, 0U);
    EXPECT_GT(kinds.fallback, 0U);
    EXPECT_GT(kinds.unroutable, 0U);
  }
  // The sweep's nested failure levels, up to every uplink pair dead.
  const auto order = fault::FailureModel::shuffled_uplink_pairs(ft, 77);
  fault::DegradedView view(net);
  std::uint32_t failed = 0;
  for (const std::uint32_t level : {0U, 3U, 6U, 10U, 16U}) {
    SCOPED_TRACE("failures " + std::to_string(level));
    for (; failed < level; ++failed) {
      view.fail_channel(ft.up_link(order[failed].first, order[failed].second)
                            .value);
      view.fail_channel(
          ft.down_link(order[failed].second, order[failed].first).value);
    }
    const fault::DegradedYuanRouting degraded(ft, view);
    const auto kinds = expect_cache_matches_try_route(ft, degraded);
    EXPECT_EQ(kinds.direct, ft.r() * ft.n() * (ft.n() - 1));
    if (level == 0) {
      EXPECT_EQ(kinds.fallback + kinds.unroutable, 0U);
    }
    if (level == 16) {
      EXPECT_EQ(kinds.cross + kinds.fallback, 0U);
    }
  }
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
  std::vector<std::uint32_t> walked;
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
      routing::walk_path(*cache, terminals[s], terminals[d], walked);
      EXPECT_EQ(walked, live);
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

TEST(RoutingTable, FromPathsSkipsDirect) {
  // A schedule overrides the base routing on its cross pairs only: the
  // direct path in the list changes nothing, and unlisted pairs keep d-mod-k.
  const FoldedClos ft(FtreeParams{2, 3, 4});
  const auto net = build_network(ft);
  const DModKRouting dmodk(ft);
  const SDPair cross{LeafId{0}, LeafId{5}};
  const TopId other{(dmodk.route(cross).top.value + 1) % ft.m()};
  const std::vector<FtreePath> paths{ft.cross_path(cross, other),
                                     ft.direct_path({LeafId{0}, LeafId{1}})};
  const auto cache = routing::ChannelRouteCache::from_paths(net, dmodk, paths);

  auto run = [&](std::uint32_t s, std::uint32_t d) {
    const auto span = cache->channels(s, d);
    return std::vector<std::uint32_t>(span.begin(), span.end());
  };
  EXPECT_EQ(run(0, 5),
            (std::vector<std::uint32_t>{
                ft.leaf_up_link(LeafId{0}).value,
                ft.up_link(ft.switch_of(LeafId{0}), other).value,
                ft.down_link(other, ft.switch_of(LeafId{5})).value,
                ft.leaf_down_link(LeafId{5}).value}));
  EXPECT_NE(run(0, 5), live_links(dmodk, cross));
  for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      if (s == d || (s == 0 && d == 5)) continue;
      EXPECT_EQ(run(s, d), live_links(dmodk, {LeafId{s}, LeafId{d}}));
    }
  }
  EXPECT_THROW((void)routing::ChannelRouteCache::from_paths(
                   net, dmodk, std::vector<FtreePath>{paths[0], paths[0]}),
               precondition_error);
}

TEST(RouteCacheScale, Radix48RoutesAndAuditAgree) {
  const FoldedClos ft(FtreeParams{8, 64, 48});  // 384 leafs, 48 switches
  const YuanNonblockingRouting yuan(ft);
  const auto cache = routing::RouteCache::materialize(yuan);
  ASSERT_EQ(cache.leaf_count(), 384U);
  EXPECT_FALSE(cache.any_unroutable());

  // Spot-check the cached codes against live routing on a deterministic
  // sample of pairs (the full 384^2 sweep is covered at small radix).
  Xoshiro256 rng(48);
  for (int probe = 0; probe < 2000; ++probe) {
    const auto s = static_cast<std::uint32_t>(rng.below(ft.leaf_count()));
    const auto d = static_cast<std::uint32_t>(rng.below(ft.leaf_count()));
    if (s == d) continue;
    ASSERT_EQ(cache.top(s, d), live_code(yuan, SDPair{LeafId{s}, LeafId{d}}));
  }

  // Every cached code is a top switch of the fabric or a reserved code.
  for (std::uint32_t s = 0; s < ft.leaf_count(); s += 37) {
    for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
      const auto code = cache.top(s, d);
      ASSERT_TRUE(code < ft.m() || code == routing::RouteCache::kDirect ||
                  (code == routing::RouteCache::kEmpty && s == d));
    }
  }

  // m = 64 >= n^2 = 64: Theorem 3 applies and the Lemma 1 audit must
  // certify the routing nonblocking at this radix.
  EXPECT_TRUE(lemma1_audit(yuan).empty());
}

}  // namespace
}  // namespace nbclos
