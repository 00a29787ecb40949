#include "nbclos/analysis/verifier.hpp"

#include <gtest/gtest.h>

#include <string>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/edge_coloring.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

TEST(Verifier, ExhaustiveProvesNonblockingInstance) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const YuanNonblockingRouting routing(ft);
  const auto result = verify_exhaustive(ft, as_pattern_router(routing));
  EXPECT_TRUE(result.nonblocking);
  EXPECT_FALSE(result.counterexample.has_value());
  EXPECT_EQ(result.permutations_checked, 720U);
}

TEST(Verifier, ExhaustiveFindsCounterexampleForBlockingRouting) {
  const FoldedClos ft(FtreeParams{2, 2, 3});  // m < n^2: must block
  const DModKRouting routing(ft);
  const auto result = verify_exhaustive(ft, as_pattern_router(routing));
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_GT(result.counterexample_collisions, 0U);
  // The counterexample actually blocks.
  EXPECT_TRUE(has_contention(ft, routing.route_all(*result.counterexample)));
}

TEST(Verifier, RandomAcceptsNonblockingScheme) {
  const FoldedClos ft(FtreeParams{3, 9, 7});
  const YuanNonblockingRouting routing(ft);
  Xoshiro256 rng(10);
  const auto result = verify_random(ft, as_pattern_router(routing), 100, rng);
  EXPECT_TRUE(result.nonblocking);
  EXPECT_EQ(result.permutations_checked, 100U);
}

TEST(Verifier, RandomCatchesHeavilyBlockingScheme) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  const DModKRouting routing(ft);
  Xoshiro256 rng(11);
  const auto result = verify_random(ft, as_pattern_router(routing), 100, rng);
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  validate_permutation(*result.counterexample, ft.leaf_count());
}

TEST(Verifier, AdversarialBeatsRandomOnRareBlocking) {
  // ftree(2+4, 4), d-mod-k: blocking exists (Lemma 1 fails) but is rare
  // under uniform sampling on this small instance; the hill climber must
  // find it within a modest budget.
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  ASSERT_FALSE(is_nonblocking_single_path(routing));
  Xoshiro256 rng(12);
  const auto result = verify_adversarial(
      ft, as_pattern_router(routing), AdversarialOptions{10, 1000}, rng);
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_TRUE(has_contention(ft, routing.route_all(*result.counterexample)));
}

TEST(Verifier, AdversarialStaysCleanOnNonblockingScheme) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  Xoshiro256 rng(13);
  const auto result = verify_adversarial(
      ft, as_pattern_router(routing), AdversarialOptions{3, 200}, rng);
  EXPECT_TRUE(result.nonblocking);
}

TEST(Verifier, WorksWithPatternLevelRouters) {
  // The PatternRouter abstraction also fits the centralized scheme,
  // which has no per-SD fixed path.
  const FoldedClos ft(FtreeParams{2, 2, 4});  // m = n: rearrangeable
  const CentralizedRearrangeableRouter router(ft);
  const auto route_fn = [&router](const Permutation& p) {
    return router.route(p);
  };
  const auto result = verify_exhaustive(ft, route_fn);
  EXPECT_TRUE(result.nonblocking);
  EXPECT_EQ(result.permutations_checked, 40320U);  // 8!
}

TEST(Verifier, WorstCaseSearchEscalatesCollisions) {
  // The maximizer should find patterns substantially worse than a random
  // draw for an undersized network.
  const FoldedClos ft(FtreeParams{3, 2, 6});
  const DModKRouting routing(ft);
  Xoshiro256 rng(33);
  // Baseline: average collisions of random permutations.
  double random_mean = 0.0;
  for (int i = 0; i < 30; ++i) {
    LinkLoadMap map(ft);
    map.add_paths(routing.route_all(random_permutation(ft.leaf_count(), rng)));
    random_mean += static_cast<double>(map.colliding_pairs());
  }
  random_mean /= 30.0;
  const auto worst = worst_case_search(ft, as_pattern_router(routing),
                                       AdversarialOptions{4, 800}, rng);
  EXPECT_GT(static_cast<double>(worst.collisions), random_mean);
  // The reported permutation really produces the reported collisions.
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(worst.permutation));
  EXPECT_EQ(map.colliding_pairs(), worst.collisions);
  validate_permutation(worst.permutation, ft.leaf_count());
}

TEST(Verifier, WorstCaseSearchFindsZeroForNonblockingScheme) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  Xoshiro256 rng(34);
  const auto worst = worst_case_search(ft, as_pattern_router(routing),
                                       AdversarialOptions{3, 300}, rng);
  EXPECT_EQ(worst.collisions, 0U);
  EXPECT_GT(worst.evaluations, 0U);
}

void expect_same_restart(const RestartResult& a, const RestartResult& b) {
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.pattern, b.pattern);
}

/// The cached delta restart must follow the full re-evaluation restart's
/// trajectory step for step, climbing or stopping at the first collision.
void expect_cached_restart_matches_full(const SinglePathRouting& routing,
                                        std::uint32_t steps) {
  const FoldedClos& ft = routing.ftree();
  const auto cache = routing::RouteCache::materialize(routing);
  const auto full_router = as_pattern_router(routing);
  for (const bool stop_on_positive : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", stop "
                                      << stop_on_positive);
      expect_same_restart(
          adversarial_restart(ft, cache, steps, seed, stop_on_positive),
          adversarial_restart(ft, full_router, steps, seed,
                              stop_on_positive));
    }
  }
}

TEST(Verifier, DeltaRestartMatchesFullRestartExactly) {
  // Same seed -> same start pattern and same swap proposals; since delta
  // and full evaluation must agree on every collision count, the entire
  // trajectory (accepts, reverts, final pattern) is identical.
  const FoldedClos ft(FtreeParams{2, 4, 4});
  expect_cached_restart_matches_full(DModKRouting(ft), 300);
}

TEST(Verifier, DeltaAdversarialOverloadMatchesPatternRouterOverload) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  const AdversarialOptions options{6, 500};
  Xoshiro256 rng_full(12);
  const auto full =
      verify_adversarial(ft, as_pattern_router(routing), options, rng_full);
  Xoshiro256 rng_delta(12);
  const auto delta = verify_adversarial(ft, routing, options, rng_delta);
  EXPECT_EQ(delta.nonblocking, full.nonblocking);
  EXPECT_EQ(delta.permutations_checked, full.permutations_checked);
  EXPECT_EQ(delta.counterexample.has_value(), full.counterexample.has_value());
  if (delta.counterexample && full.counterexample) {
    EXPECT_EQ(*delta.counterexample, *full.counterexample);
    EXPECT_EQ(delta.counterexample_collisions, full.counterexample_collisions);
  }
}

TEST(Verifier, DeltaWorstCaseOverloadMatchesPatternRouterOverload) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  const DModKRouting routing(ft);
  const AdversarialOptions options{4, 400};
  Xoshiro256 rng_full(33);
  const auto full =
      worst_case_search(ft, as_pattern_router(routing), options, rng_full);
  Xoshiro256 rng_delta(33);
  const auto delta = worst_case_search(ft, routing, options, rng_delta);
  EXPECT_EQ(delta.collisions, full.collisions);
  EXPECT_EQ(delta.evaluations, full.evaluations);
  EXPECT_EQ(delta.permutation, full.permutation);
  // And the reported pattern really produces the reported collisions.
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(delta.permutation));
  EXPECT_EQ(map.colliding_pairs(), delta.collisions);
}

TEST(Verifier, DeltaAdversarialFindsRareBlocking) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  ASSERT_FALSE(is_nonblocking_single_path(routing));
  Xoshiro256 rng(12);
  const auto result =
      verify_adversarial(ft, routing, AdversarialOptions{10, 1000}, rng);
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_TRUE(has_contention(ft, routing.route_all(*result.counterexample)));
}

TEST(Verifier, ExhaustiveStopsAtLowestRankCounterexample) {
  // permutations_checked is now the counterexample's lexicographic rank
  // + 1 — the serial sweep stops there, and the parallel sweep returns
  // the same number.
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const DModKRouting routing(ft);
  const auto result = verify_exhaustive(ft, as_pattern_router(routing));
  ASSERT_FALSE(result.nonblocking);
  EXPECT_LT(result.permutations_checked, 720U);
  EXPECT_GT(result.permutations_checked, 0U);
}

TEST(Verifier, CountsPermutationsInAdversarialMode) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const YuanNonblockingRouting routing(ft);
  Xoshiro256 rng(14);
  const AdversarialOptions options{2, 50};
  const auto result =
      verify_adversarial(ft, as_pattern_router(routing), options, rng);
  // 2 restarts x (1 initial + <= 50 steps); i == j steps don't evaluate.
  EXPECT_GE(result.permutations_checked, 2U);
  EXPECT_LE(result.permutations_checked, 102U);
}

TEST(CachedRestart, MatchesFullAndDeltaEvaluationTrajectories) {
  const FoldedClos ft(FtreeParams{3, 4, 5});
  expect_cached_restart_matches_full(DModKRouting(ft), 300);
}

TEST(CachedRestart, NonblockingRoutingNeverFindsCollisions) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const YuanNonblockingRouting yuan(ft);
  expect_cached_restart_matches_full(yuan, 200);
  const auto cache = routing::RouteCache::materialize(yuan);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    EXPECT_EQ(adversarial_restart(ft, cache, 200, seed, true).collisions, 0U);
  }
}

/// The routing as a router PatternScorer cannot see through: scored from
/// its path vectors, with no RouteCache and no top_for shortcut.
PatternRouter opaque_router(const SinglePathRouting& routing) {
  return [&routing](const Permutation& p) { return routing.route_all(p); };
}

TEST(Verifier, DeltaRestartMatchesAnOpaqueRoutersFullRestart) {
  // The delta side replays RouteCache::materialize's table; the opaque
  // side scores the routing's own paths, so a wrong table entry shows.
  for (const FtreeParams params : {FtreeParams{2, 4, 4}, FtreeParams{3, 4, 5}}) {
    const FoldedClos ft(params);
    const DModKRouting routing(ft);
    const auto cache = routing::RouteCache::materialize(routing);
    const auto opaque = opaque_router(routing);
    for (const bool stop_on_positive : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        expect_same_restart(
            adversarial_restart(ft, cache, 300, seed, stop_on_positive),
            adversarial_restart(ft, opaque, 300, seed, stop_on_positive));
      }
    }
    Xoshiro256 rng_opaque(33);
    Xoshiro256 rng_delta(33);
    const AdversarialOptions options{4, 400};
    const auto full = worst_case_search(ft, opaque, options, rng_opaque);
    const auto delta = worst_case_search(ft, routing, options, rng_delta);
    EXPECT_EQ(delta.collisions, full.collisions);
    EXPECT_EQ(delta.evaluations, full.evaluations);
    EXPECT_EQ(delta.permutation, full.permutation);
  }
}

TEST(Verifier, ScoringCachePaysOnlyForManyScoresOnABoundedTable) {
  const FoldedClos verify_ftree(FtreeParams{8, 64, 64});  // 512 leaves
  EXPECT_TRUE(scoring_cache_pays(verify_ftree, 20000));
  const FoldedClos small(FtreeParams{4, 16, 20});  // 80 leaves
  EXPECT_TRUE(scoring_cache_pays(small, 80));
  EXPECT_FALSE(scoring_cache_pays(small, 79));
  EXPECT_FALSE(scoring_cache_pays(small, 10));
  EXPECT_FALSE(scoring_cache_pays(small, 0));
  // 5792^2 pairs at 2 bytes fit 64 MiB, 5793^2 do not.
  EXPECT_TRUE(scoring_cache_pays(FoldedClos(FtreeParams{1, 1, 5792}), 5792));
  EXPECT_FALSE(
      scoring_cache_pays(FoldedClos(FtreeParams{1, 1, 5793}), UINT64_MAX));
  // 33,792 leaves would need a 2.3 GB table.
  EXPECT_FALSE(
      scoring_cache_pays(FoldedClos(FtreeParams{32, 1024, 1056}), 500));
  // Top ids past 16 bits cannot be cached at all.
  const FoldedClos wide(FtreeParams{2, routing::RouteCache::kTopLimit, 3});
  EXPECT_FALSE(scoring_cache_pays(wide, 1'000'000));
  // Such a fabric is still scored, pair by pair, at any trial count.
  const DModKRouting dmodk(wide);
  Xoshiro256 rng(8);
  EXPECT_EQ(
      verify_random(wide, as_pattern_router(dmodk), 50, rng).nonblocking,
      true);
}

TEST(Verifier, RandomVerifyBuildsATableOnlyWhenTrialsPayForIt) {
  const FoldedClos ft(FtreeParams{4, 16, 20});  // 80 leaves
  const DModKRouting routing(ft);
  const auto builds = [] {
    return obs::metrics().counter("route_cache.builds").value();
  };
  for (const std::uint64_t trials : {10U, 79U, 80U, 400U}) {
    SCOPED_TRACE(std::to_string(trials) + " trials");
    Xoshiro256 rng_opaque(5);
    const auto expect =
        verify_random(ft, opaque_router(routing), trials, rng_opaque);
    Xoshiro256 rng(5);
    const auto before = builds();
    const auto result =
        verify_random(ft, as_pattern_router(routing), trials, rng);
    if constexpr (obs::kEnabled) {
      EXPECT_EQ(builds() - before, trials >= 80 ? 1U : 0U);
    }
    EXPECT_EQ(result.nonblocking, expect.nonblocking);
    EXPECT_EQ(result.permutations_checked, expect.permutations_checked);
    EXPECT_EQ(result.counterexample, expect.counterexample);
    EXPECT_EQ(result.counterexample_collisions,
              expect.counterexample_collisions);
    EXPECT_EQ(rng(), rng_opaque());  // the same draws were made
  }
}

}  // namespace
}  // namespace nbclos
