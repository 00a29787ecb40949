#include "nbclos/analysis/contention.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "nbclos/adaptive/router.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/analysis/verifier.hpp"
#include "nbclos/util/digits.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/edge_coloring.hpp"
#include "nbclos/routing/multipath.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

TEST(LinkLoadMap, CountsPathsPerLink) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  LinkLoadMap map(ft);
  const SDPair a{LeafId{0}, LeafId{2}};
  const SDPair b{LeafId{1}, LeafId{3}};
  map.add_path(ft.cross_path(a, TopId{0}));
  map.add_path(ft.cross_path(b, TopId{0}));  // shares uplink 0->top0
  EXPECT_EQ(map.load(ft.up_link(BottomId{0}, TopId{0})), 2U);
  EXPECT_EQ(map.load(ft.up_link(BottomId{0}, TopId{1})), 0U);
  EXPECT_EQ(map.max_load(), 2U);
  EXPECT_EQ(map.contended_links(), 2U);  // shared uplink and downlink
  EXPECT_EQ(map.colliding_pairs(), 2U);
  EXPECT_FALSE(map.contention_free());
}

TEST(LinkLoadMap, DisjointPathsAreContentionFree) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  LinkLoadMap map(ft);
  map.add_path(ft.cross_path({LeafId{0}, LeafId{2}}, TopId{0}));
  map.add_path(ft.cross_path({LeafId{1}, LeafId{4}}, TopId{1}));
  EXPECT_TRUE(map.contention_free());
  EXPECT_EQ(map.colliding_pairs(), 0U);
  EXPECT_EQ(map.max_load(), 1U);
}

TEST(LinkLoadMap, SharedDownlinkDetected) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  // Different source switches, same destination switch, same top.
  std::vector<FtreePath> paths{
      ft.cross_path({LeafId{0}, LeafId{4}}, TopId{1}),
      ft.cross_path({LeafId{2}, LeafId{5}}, TopId{1}),
  };
  EXPECT_TRUE(has_contention(ft, paths));
  LinkLoadMap map(ft);
  map.add_paths(paths);
  EXPECT_EQ(map.load(ft.down_link(TopId{1}, BottomId{2})), 2U);
  EXPECT_EQ(map.contended_links(), 1U);  // only the downlink is shared
}

TEST(LinkLoadMap, DirectPathsOnlyTouchLeafLinks) {
  const FoldedClos ft(FtreeParams{3, 2, 2});
  LinkLoadMap map(ft);
  map.add_path(ft.direct_path({LeafId{0}, LeafId{1}}));
  EXPECT_EQ(map.load(ft.leaf_up_link(LeafId{0})), 1U);
  EXPECT_EQ(map.load(ft.leaf_down_link(LeafId{1})), 1U);
  for (std::uint32_t t = 0; t < ft.m(); ++t) {
    for (std::uint32_t b = 0; b < ft.r(); ++b) {
      EXPECT_EQ(map.load(ft.up_link(BottomId{b}, TopId{t})), 0U);
      EXPECT_EQ(map.load(ft.down_link(TopId{t}, BottomId{b})), 0U);
    }
  }
}

// --- PermutationLoad: differential against LinkLoadMap ---------------

/// The ftree shapes of the differential tests: ftree(2+3,5), ftree(3+9,5)
/// and ftree(4+16,8).
const FtreeParams kLoadShapes[] = {{2, 3, 5}, {3, 9, 5}, {4, 16, 8}};

/// Seeded full and partial random permutations as target vectors (leaf
/// s sends to target[s], nothing when target[s] == s), the identity (an
/// empty pattern) first.
std::vector<std::vector<std::uint32_t>> sample_targets(const FoldedClos& ft,
                                                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> identity(ft.leaf_count());
  std::iota(identity.begin(), identity.end(), 0U);
  std::vector<std::vector<std::uint32_t>> targets{identity};
  for (int i = 0; i < 40; ++i) {
    random_targets(ft.leaf_count(), rng, targets.emplace_back());
    const auto pairs = static_cast<std::uint32_t>(rng.below(ft.leaf_count() + 1));
    auto& partial = targets.emplace_back(identity);
    for (const auto sd :
         random_partial_permutation(ft.leaf_count(), pairs, rng)) {
      partial[sd.src.value] = sd.dst.value;
    }
  }
  return targets;
}

/// Adaptive test router: each cross pair takes the first of the n lowest
/// top switches whose up- and down-link this pattern has not used yet,
/// else top dst % n, so it collides on some patterns and not on others.
PatternRouter first_fit_router(const FoldedClos& ft) {
  return [&ft](const Permutation& pattern) {
    std::vector<FtreePath> paths;
    paths.reserve(pattern.size());
    std::vector<std::uint8_t> up(std::size_t{ft.r()} * ft.m());
    std::vector<std::uint8_t> down(up.size());
    for (const auto sd : pattern) {
      if (!ft.needs_top(sd)) {
        paths.push_back(ft.direct_path(sd));
        continue;
      }
      const auto v = ft.switch_of(sd.src).value;
      const auto w = ft.switch_of(sd.dst).value;
      std::uint32_t t = 0;
      while (t < ft.n() && (up[v * ft.m() + t] != 0 || down[t * ft.r() + w] != 0)) {
        ++t;
      }
      if (t == ft.n()) t = sd.dst.value % ft.n();
      up[v * ft.m() + t] = 1;
      down[t * ft.r() + w] = 1;
      paths.push_back(ft.cross_path(sd, TopId{t}));
    }
    return paths;
  };
}

/// PermutationLoad over `paths` (and, through a PatternScorer, over
/// `router`) must report LinkLoadMap's colliding pairs and max load.  The
/// scorers are built for too few scores to pay for a RouteCache and for
/// enough to pay for one, so a single-path router is scored both pair by
/// pair and from a cache of its own.
void expect_loads_match(const FoldedClos& ft,
                        const std::vector<std::uint32_t>& target,
                        const std::vector<FtreePath>& paths,
                        const PatternRouter& router, const char* what) {
  LinkLoadMap map(ft);
  map.add_paths(paths);
  PermutationLoad load(ft);
  load.load(permutation_from_targets(target), paths);
  EXPECT_EQ(load.colliding_pairs(), map.colliding_pairs()) << what;
  EXPECT_EQ(load.max_load(), map.max_load()) << what;
  for (const std::uint64_t scores : {std::uint64_t{0},
                                     std::uint64_t{ft.leaf_count()}}) {
    PatternScorer scorer(ft, router, scores);
    EXPECT_EQ(scorer.cached(), scores > 0 && wrapped_single_path(router))
        << what;
    const auto& scored = scorer.score(target);
    EXPECT_EQ(scored.colliding_pairs(), map.colliding_pairs()) << what;
    EXPECT_EQ(scored.max_load(), map.max_load()) << what;
  }
}

TEST(PermutationLoad, MatchesLinkLoadMapOnSinglePathRoutings) {
  // The shared shapes plus ftree(2+4,5) and ftree(3+9,4); Theorem 3
  // routes only the shapes with m >= n^2.
  std::vector<FtreeParams> shapes(std::begin(kLoadShapes),
                                  std::end(kLoadShapes));
  shapes.push_back({2, 4, 5});
  shapes.push_back({3, 9, 4});
  std::uint64_t colliding = 0;
  for (const auto& params : shapes) {
    const FoldedClos ft(params);
    const DModKRouting dmodk(ft);
    const SModKRouting smodk(ft);
    const DModKSwitchRouting dswitch(ft);
    const RandomFixedRouting random_fixed(ft, 31);
    std::vector<const SinglePathRouting*> routings{&dmodk, &smodk, &dswitch,
                                                   &random_fixed};
    std::optional<YuanNonblockingRouting> yuan;
    if (ft.m() >= ft.n() * ft.n()) routings.push_back(&yuan.emplace(ft));
    for (const auto* routing : routings) {
      SCOPED_TRACE(routing->name() + " on ftree(" + std::to_string(ft.n()) +
                   "+" + std::to_string(ft.m()) + "," +
                   std::to_string(ft.r()) + ")");
      const auto router = as_pattern_router(*routing);
      const auto cache = routing::RouteCache::materialize(*routing);
      PermutationLoad cached(ft);
      PermutationLoad pair_by_pair(ft);
      PatternScorer shared(ft, router, cache);
      for (const auto& target : sample_targets(ft, 32)) {
        const auto paths = routing->route_all(permutation_from_targets(target));
        // The path-vector load and scorers with and without a cache.
        expect_loads_match(ft, target, paths, router, "single-path");
        LinkLoadMap map(ft);
        map.add_paths(paths);
        // The cached and the top_for loads, and a scorer lent the cache.
        cached.load(target, cache);
        EXPECT_EQ(cached.colliding_pairs(), map.colliding_pairs());
        EXPECT_EQ(cached.max_load(), map.max_load());
        pair_by_pair.load(target, *routing);
        EXPECT_EQ(pair_by_pair.colliding_pairs(), map.colliding_pairs());
        EXPECT_EQ(pair_by_pair.max_load(), map.max_load());
        const auto& scored = shared.score(target);
        EXPECT_EQ(scored.colliding_pairs(), map.colliding_pairs());
        EXPECT_EQ(scored.max_load(), map.max_load());
        colliding += map.colliding_pairs();
      }
    }
  }
  EXPECT_GT(colliding, 0U);  // the blocking routings did collide
}

TEST(PermutationLoad, MatchesLinkLoadMapOnPatternRouters) {
  std::uint64_t colliding = 0;
  for (const auto& params : kLoadShapes) {
    const FoldedClos ft(params);
    const auto first_fit = first_fit_router(ft);
    const CentralizedRearrangeableRouter central(ft);
    const PatternRouter central_router = [&central](const Permutation& p) {
      return central.route(p);
    };
    for (const auto& target : sample_targets(ft, 33)) {
      const auto pattern = permutation_from_targets(target);
      const auto paths = first_fit(pattern);
      expect_loads_match(ft, target, paths, first_fit, "first-fit");
      expect_loads_match(ft, target, central.route(pattern), central_router,
                         "centralized");
      LinkLoadMap map(ft);
      map.add_paths(paths);
      colliding += map.colliding_pairs();
    }
  }
  EXPECT_GT(colliding, 0U);
}

TEST(PermutationLoad, MatchesLinkLoadMapOnTheAdaptiveRouter) {
  for (const auto& params : kLoadShapes) {
    const adaptive::AdaptiveParams adaptive_params{
        params.n, params.r, min_digit_width(params.r, params.n)};
    const FoldedClos ft(FtreeParams{
        params.n, adaptive_params.worst_case_top_switches(), params.r});
    const adaptive::NonblockingAdaptiveRouter router(adaptive_params);
    const PatternRouter pattern_router = [&](const Permutation& p) {
      return router.route(p).to_paths(ft);
    };
    for (const auto& target : sample_targets(ft, 34)) {
      expect_loads_match(ft, target,
                         pattern_router(permutation_from_targets(target)),
                         pattern_router, "adaptive");
    }
  }
}

TEST(PermutationLoad, EmptyAndDirectPatternsLoadNoSharedLink) {
  const FoldedClos ft(FtreeParams{3, 2, 2});
  const DModKRouting routing(ft);
  const auto cache = routing::RouteCache::materialize(routing);
  PermutationLoad load(ft);
  const std::vector<std::uint32_t> identity{0, 1, 2, 3, 4, 5};
  load.load(identity, cache);
  EXPECT_EQ(load.colliding_pairs(), 0U);
  EXPECT_EQ(load.max_load(), 0U);
  // Same-switch pairs load only their leaf links.
  const std::vector<std::uint32_t> direct{1, 2, 0, 5, 4, 3};
  load.load(direct, cache);
  EXPECT_EQ(load.colliding_pairs(), 0U);
  EXPECT_EQ(load.max_load(), 1U);
  // A reload starts from zero: two colliding cross pairs, then none.
  const Permutation shared{{LeafId{0}, LeafId{3}}, {LeafId{1}, LeafId{4}}};
  const std::vector<FtreePath> both_top0{
      ft.cross_path(shared[0], TopId{0}), ft.cross_path(shared[1], TopId{0})};
  load.load(shared, both_top0);
  EXPECT_EQ(load.colliding_pairs(), 2U);  // shared up-link and down-link
  EXPECT_EQ(load.max_load(), 2U);
  load.load(direct, cache);
  EXPECT_EQ(load.colliding_pairs(), 0U);
  EXPECT_EQ(load.max_load(), 1U);
  load.load(Permutation{}, std::vector<FtreePath>{});
  EXPECT_EQ(load.max_load(), 0U);
  // The same from the routing's top_for, with no table.
  load.load(direct, routing);
  EXPECT_EQ(load.colliding_pairs(), 0U);
  EXPECT_EQ(load.max_load(), 1U);
  load.load(identity, routing);
  EXPECT_EQ(load.colliding_pairs(), 0U);
  EXPECT_EQ(load.max_load(), 0U);
}

TEST(PermutationLoad, AddAndRemoveMatchAFreshLoad) {
  std::uint64_t colliding = 0;
  for (const auto& params : kLoadShapes) {
    const FoldedClos ft(params);
    const DModKRouting dmodk(ft);
    const SModKRouting smodk(ft);
    const RandomFixedRouting random_fixed(ft, 17);
    for (const SinglePathRouting* routing :
         std::vector<const SinglePathRouting*>{&dmodk, &smodk, &random_fixed}) {
      SCOPED_TRACE(routing->name());
      const auto cache = routing::RouteCache::materialize(*routing);
      const std::uint32_t leafs = ft.leaf_count();
      PermutationLoad fresh(ft);
      Xoshiro256 rng(35);
      for (auto target : sample_targets(ft, 36)) {
        // Pair by pair from zero counters to the whole pattern.
        PermutationLoad running(ft);
        for (std::uint32_t s = 0; s < leafs; ++s) {
          running.add(cache, s, target[s]);
        }
        fresh.load(target, cache);
        ASSERT_EQ(running.colliding_pairs(), fresh.colliding_pairs());
        colliding += fresh.colliding_pairs();
        // Target swaps: remove both pairs, swap, add both back.
        for (int step = 0; step < 20; ++step) {
          const auto i = static_cast<std::uint32_t>(rng.below(leafs));
          const auto j = static_cast<std::uint32_t>(rng.below(leafs));
          running.remove(cache, i, target[i]);
          if (j != i) running.remove(cache, j, target[j]);
          std::swap(target[i], target[j]);
          running.add(cache, i, target[i]);
          if (j != i) running.add(cache, j, target[j]);
          fresh.load(target, cache);
          ASSERT_EQ(running.colliding_pairs(), fresh.colliding_pairs())
              << "after swap " << step;
        }
        // Removing every pair returns the counters to zero.
        for (std::uint32_t s = 0; s < leafs; ++s) {
          running.remove(cache, s, target[s]);
        }
        EXPECT_EQ(running.colliding_pairs(), 0U);
        if (kDebugChecksEnabled) {
          for (std::uint32_t s = 0; s < leafs; ++s) {
            if (cache.top(s, target[s]) < ft.m()) {
              EXPECT_THROW(running.remove(cache, s, target[s]),
                           precondition_error);
              break;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(colliding, 0U);
}

TEST(PermutationLoad, DebugBuildsRejectMismatchedRouterPaths) {
  if (!kDebugChecksEnabled) GTEST_SKIP() << "debug checks compiled out";
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const DModKRouting routing(ft);
  const Permutation pattern{{LeafId{0}, LeafId{2}}, {LeafId{2}, LeafId{4}}};
  auto paths = routing.route_all(pattern);
  PermutationLoad load(ft);
  EXPECT_THROW(load.load(pattern, std::vector<FtreePath>{paths[0]}),
               precondition_error);
  std::swap(paths[0], paths[1]);
  EXPECT_THROW(load.load(pattern, paths), precondition_error);
}

TEST(Lemma1Audit, PassesForTheoremThreeRouting) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  EXPECT_TRUE(lemma1_audit(routing).empty());
}

TEST(Lemma1Audit, FlagsDModK) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const DModKRouting routing(ft);
  const auto violations = lemma1_audit(routing);
  EXPECT_FALSE(violations.empty());
  // Every reported link genuinely carries >= 2 sources and >= 2 dests.
  for (const auto& v : violations) {
    EXPECT_GE(v.distinct_sources, 2U);
    EXPECT_GE(v.distinct_destinations, 2U);
    // D-mod-K violations are on uplinks (downlinks converge on one dest
    // per top switch... but dswitch-aggregation means several dests share
    // a downlink too, so just check the link id is internal).
    const auto kind = ft.kind_of(v.link);
    EXPECT_TRUE(kind == LinkKind::kUp || kind == LinkKind::kDown);
  }
}

TEST(Lemma1Audit, FootprintVariantMatchesSinglePathOnWidthOne) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  MultipathObliviousRouting multipath(ft, 1, SpreadPolicy::kRoundRobin);
  const auto violations = lemma1_audit_footprints(
      ft, [&](SDPair sd) { return multipath.link_footprint(sd); });
  // Width-1 spread with base (s+d) mod m is neither source- nor
  // destination-keyed, so it violates Lemma 1 somewhere.
  EXPECT_FALSE(violations.empty());
}

TEST(Lemma1Audit, FullWidthMultipathViolatesEverywhere) {
  // Spreading every pair over all m uplinks makes every uplink carry
  // many sources and many destinations.
  const FoldedClos ft(FtreeParams{2, 4, 5});
  MultipathObliviousRouting multipath(ft, ft.m(), SpreadPolicy::kRandom);
  const auto violations = lemma1_audit_footprints(
      ft, [&](SDPair sd) { return multipath.link_footprint(sd); });
  EXPECT_EQ(violations.size(), 2U * ft.r() * ft.m());
}

/// Worst-possible single-path routing: every cross pair through top 0.
class AllThroughTopZeroRouting final : public SinglePathRouting {
 public:
  using SinglePathRouting::SinglePathRouting;
  [[nodiscard]] std::string name() const override { return "all-top-0"; }

 protected:
  [[nodiscard]] TopId top_for(SDPair) const override { return TopId{0}; }
};

TEST(Lemma1Audit, ReportsTrueDistinctCounts) {
  // Forcing every cross pair through top switch 0 gives exactly known
  // counts: uplink (v -> top 0) carries the n sources of switch v toward
  // the (r-1)n leaves of the other switches; downlink (top 0 -> w) is the
  // mirror image.  The audit must report those true distinct counts, not
  // just the >= 2 threshold that flags the violation.
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const AllThroughTopZeroRouting routing(ft);
  const auto violations = lemma1_audit(routing);
  // Every top-0 uplink and downlink violates; top 1 is never used.
  ASSERT_EQ(violations.size(), 2U * ft.r());
  const std::uint32_t n = ft.n();
  const std::uint32_t other_leafs = (ft.r() - 1) * n;
  for (const auto& v : violations) {
    const auto kind = ft.kind_of(v.link);
    if (kind == LinkKind::kUp) {
      EXPECT_EQ(v.distinct_sources, n) << "uplink " << v.link.value;
      EXPECT_EQ(v.distinct_destinations, other_leafs)
          << "uplink " << v.link.value;
    } else {
      ASSERT_EQ(kind, LinkKind::kDown);
      EXPECT_EQ(v.distinct_sources, other_leafs)
          << "downlink " << v.link.value;
      EXPECT_EQ(v.distinct_destinations, n) << "downlink " << v.link.value;
    }
  }
}

TEST(Lemma1Audit, FootprintVariantReportsTrueDistinctCounts) {
  // Same construction through the footprint API.
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const AllThroughTopZeroRouting routing(ft);
  const auto violations = lemma1_audit_footprints(ft, [&](SDPair sd) {
    const auto path = routing.route(sd);
    LinkId links[FoldedClos::kMaxPathLinks];
    const auto count = ft.links_into(path, links);
    return std::vector<LinkId>(links, links + count);
  });
  ASSERT_EQ(violations.size(), 2U * ft.r());
  for (const auto& v : violations) {
    EXPECT_GE(v.distinct_sources, 2U);
    EXPECT_GE(v.distinct_destinations, 2U);
    EXPECT_EQ(v.distinct_sources * v.distinct_destinations,
              ft.n() * (ft.r() - 1) * ft.n());
  }
}

TEST(Lemma1Audit, IffDirectionBlockingImpliesViolation) {
  // Lemma 1 is an iff: a routing with no violations is nonblocking, and
  // a violation yields a 2-pair permutation with contention.  Construct
  // that permutation from a violating link for D-mod-K.
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const DModKRouting routing(ft);
  ASSERT_FALSE(is_nonblocking_single_path(routing));
  // Find two SD pairs with distinct sources and dests sharing a link.
  bool found = false;
  for (std::uint32_t s1 = 0; s1 < ft.leaf_count() && !found; ++s1) {
    for (std::uint32_t d1 = 0; d1 < ft.leaf_count() && !found; ++d1) {
      if (s1 == d1) continue;
      for (std::uint32_t s2 = 0; s2 < ft.leaf_count() && !found; ++s2) {
        for (std::uint32_t d2 = 0; d2 < ft.leaf_count() && !found; ++d2) {
          if (s2 == d2 || s1 == s2 || d1 == d2) continue;
          const Permutation p{{LeafId{s1}, LeafId{d1}},
                              {LeafId{s2}, LeafId{d2}}};
          if (has_contention(ft, routing.route_all(p))) found = true;
        }
      }
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace nbclos
