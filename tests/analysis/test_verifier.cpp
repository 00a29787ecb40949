#include "nbclos/analysis/verifier.hpp"

#include <gtest/gtest.h>

#include "nbclos/analysis/contention.hpp"
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

}  // namespace
}  // namespace nbclos
