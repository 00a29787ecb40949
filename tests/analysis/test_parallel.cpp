#include "nbclos/analysis/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

PatternRouterFactory dmodk_factory(const FoldedClos& ft) {
  return [&ft](std::uint64_t) -> PatternRouter {
    // D-mod-K is stateless; a shared-const router per worker is fine.
    return [&ft](const Permutation& pattern) {
      const DModKRouting routing(ft);
      return routing.route_all(pattern);
    };
  };
}

TEST(ParallelAnalysis, MatchesSerialBlockedCountsDeterministically) {
  const FoldedClos ft(FtreeParams{2, 2, 5});
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  const auto a = estimate_blocking_parallel(ft, dmodk_factory(ft), 400, 99,
                                            pool2, 8);
  const auto b = estimate_blocking_parallel(ft, dmodk_factory(ft), 400, 99,
                                            pool4, 8);
  // Identical regardless of pool size: same chunk seeds, same merge order.
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_DOUBLE_EQ(a.mean_colliding_pairs, b.mean_colliding_pairs);
  EXPECT_DOUBLE_EQ(a.mean_max_link_load, b.mean_max_link_load);
  EXPECT_EQ(a.trials, 400U);
}

TEST(ParallelAnalysis, DifferentSeedsDiffer) {
  const FoldedClos ft(FtreeParams{2, 2, 5});
  ThreadPool pool(2);
  const auto a =
      estimate_blocking_parallel(ft, dmodk_factory(ft), 300, 1, pool, 8);
  const auto b =
      estimate_blocking_parallel(ft, dmodk_factory(ft), 300, 2, pool, 8);
  EXPECT_NE(a.mean_colliding_pairs, b.mean_colliding_pairs);
}

TEST(ParallelAnalysis, BlockingSchemeShowsHighProbability) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  ThreadPool pool(3);
  const auto est =
      estimate_blocking_parallel(ft, dmodk_factory(ft), 200, 7, pool);
  EXPECT_GT(est.blocking_probability, 0.9);
}

TEST(ParallelAnalysis, VerifyRandomParallelPassesNonblockingScheme) {
  const FoldedClos ft(FtreeParams{3, 9, 8});
  const YuanNonblockingRouting routing(ft);
  ThreadPool pool(4);
  const auto factory = [&routing](std::uint64_t) -> PatternRouter {
    return [&routing](const Permutation& pattern) {
      return routing.route_all(pattern);
    };
  };
  const auto result = verify_random_parallel(ft, factory, 200, 5, pool, 8);
  EXPECT_TRUE(result.nonblocking);
  EXPECT_EQ(result.permutations_checked, 200U);
}

TEST(ParallelAnalysis, VerifyRandomParallelFindsCounterexample) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  ThreadPool pool(4);
  const auto result =
      verify_random_parallel(ft, dmodk_factory(ft), 100, 5, pool, 4);
  EXPECT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  const DModKRouting routing(ft);
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(*result.counterexample));
  EXPECT_FALSE(map.contention_free());
}

TEST(ParallelAnalysis, CounterexampleIsDeterministicAcrossPoolSizes) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const auto a =
      verify_random_parallel(ft, dmodk_factory(ft), 100, 5, pool1, 4);
  const auto b =
      verify_random_parallel(ft, dmodk_factory(ft), 100, 5, pool4, 4);
  ASSERT_TRUE(a.counterexample.has_value());
  ASSERT_TRUE(b.counterexample.has_value());
  EXPECT_EQ(*a.counterexample, *b.counterexample);
}

void expect_same_verify(const VerifyResult& a, const VerifyResult& b) {
  EXPECT_EQ(a.nonblocking, b.nonblocking);
  EXPECT_EQ(a.permutations_checked, b.permutations_checked);
  EXPECT_EQ(a.counterexample.has_value(), b.counterexample.has_value());
  if (a.counterexample && b.counterexample) {
    EXPECT_EQ(*a.counterexample, *b.counterexample);
  }
  EXPECT_EQ(a.counterexample_collisions, b.counterexample_collisions);
}

PatternRouterFactory factory_for(const SinglePathRouting& routing) {
  return [&routing](std::uint64_t) { return as_pattern_router(routing); };
}

TEST(ParallelAnalysis, SinglePathOverloadMatchesFactoryOnBlockingRouting) {
  const FoldedClos ft(FtreeParams{3, 4, 5});
  const DModKRouting dmodk(ft);
  ThreadPool baseline_pool(1);
  const auto expect = verify_random_parallel(ft, factory_for(dmodk), 400, 21,
                                             baseline_pool, 8);
  ASSERT_FALSE(expect.nonblocking);  // m < n^2 blocks under sampling
  for (const std::size_t threads : {1U, 2U, 4U}) {
    ThreadPool pool(threads);
    expect_same_verify(verify_random_parallel(ft, dmodk, 400, 21, pool, 8),
                       expect);
  }
}

TEST(ParallelAnalysis, SinglePathOverloadMatchesFactoryOnNonblockingRouting) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const YuanNonblockingRouting yuan(ft);
  ThreadPool pool(2);
  const auto got = verify_random_parallel(ft, yuan, 300, 5, pool, 8);
  EXPECT_TRUE(got.nonblocking);
  EXPECT_EQ(got.permutations_checked, 300U);
  expect_same_verify(got, verify_random_parallel(ft, factory_for(yuan), 300, 5,
                                                 pool, 8));
}

TEST(ParallelExhaustive, MatchesSerialOnNonblockingInstance) {
  const FoldedClos ft(FtreeParams{2, 4, 3});  // 6 leaves, 720 permutations
  const YuanNonblockingRouting routing(ft);
  const auto factory = [&routing](std::uint64_t) {
    return as_pattern_router(routing);
  };
  const auto serial = verify_exhaustive(ft, as_pattern_router(routing));
  ASSERT_TRUE(serial.nonblocking);
  EXPECT_EQ(serial.permutations_checked, 720U);
  for (const std::size_t threads : {1U, 2U, 8U}) {
    ThreadPool pool(threads);
    const auto sharded = verify_exhaustive_parallel(ft, factory, pool);
    EXPECT_TRUE(sharded.nonblocking) << threads << " threads";
    EXPECT_EQ(sharded.permutations_checked, 720U) << threads << " threads";
    EXPECT_FALSE(sharded.counterexample.has_value());
  }
}

TEST(ParallelExhaustive, LowestRankCounterexampleIsBitIdenticalToSerial) {
  // Broken router: d-mod-k on an undersized fabric blocks, and the
  // sharded sweep must stop at exactly the counterexample the serial
  // enumeration stops at — same pattern, same collision count, same
  // permutations_checked — at any thread count.
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const DModKRouting routing(ft);
  const auto factory = [&routing](std::uint64_t) {
    return as_pattern_router(routing);
  };
  const auto serial = verify_exhaustive(ft, as_pattern_router(routing));
  ASSERT_FALSE(serial.nonblocking);
  ASSERT_TRUE(serial.counterexample.has_value());
  for (const std::size_t threads : {1U, 2U, 8U}) {
    ThreadPool pool(threads);
    const auto sharded = verify_exhaustive_parallel(ft, factory, pool);
    ASSERT_FALSE(sharded.nonblocking) << threads << " threads";
    ASSERT_TRUE(sharded.counterexample.has_value());
    EXPECT_EQ(*sharded.counterexample, *serial.counterexample)
        << threads << " threads";
    EXPECT_EQ(sharded.counterexample_collisions,
              serial.counterexample_collisions);
    EXPECT_EQ(sharded.permutations_checked, serial.permutations_checked)
        << threads << " threads";
  }
}

TEST(ParallelExhaustive, ShardCountDoesNotChangeResult) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const DModKRouting routing(ft);
  const auto factory = [&routing](std::uint64_t) {
    return as_pattern_router(routing);
  };
  ThreadPool pool(4);
  const auto a = verify_exhaustive_parallel(ft, factory, pool, 3);
  const auto b = verify_exhaustive_parallel(ft, factory, pool, 64);
  ASSERT_TRUE(a.counterexample.has_value());
  ASSERT_TRUE(b.counterexample.has_value());
  EXPECT_EQ(*a.counterexample, *b.counterexample);
  EXPECT_EQ(a.permutations_checked, b.permutations_checked);
}

TEST(ParallelAdversarial, ThreadCountIndependentResults) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  const AdversarialOptions options{6, 400};
  std::optional<VerifyResult> reference;
  for (const std::size_t threads : {1U, 2U, 8U}) {
    ThreadPool pool(threads);
    const auto result =
        verify_adversarial_parallel(ft, routing, options, 42, pool);
    if (!reference) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.nonblocking, reference->nonblocking);
    EXPECT_EQ(result.permutations_checked, reference->permutations_checked)
        << threads << " threads";
    EXPECT_EQ(result.counterexample.has_value(),
              reference->counterexample.has_value());
    if (result.counterexample && reference->counterexample) {
      EXPECT_EQ(*result.counterexample, *reference->counterexample)
          << threads << " threads";
    }
  }
}

/// The merge rule of verify_adversarial_parallel, replayed serially:
/// restarts in index order, stopping at the first that collides.
VerifyResult replay_restarts(const FoldedClos& ft,
                             const routing::RouteCache& cache,
                             const AdversarialOptions& options,
                             std::uint64_t seed) {
  VerifyResult result;
  result.nonblocking = true;
  for (std::uint32_t i = 0; i < options.restarts; ++i) {
    auto outcome =
        adversarial_restart(ft, cache, options.steps_per_restart,
                            adversarial_restart_seed(seed, i), true);
    result.permutations_checked += outcome.evaluations;
    if (outcome.collisions > 0) {
      result.nonblocking = false;
      result.counterexample = std::move(outcome.pattern);
      result.counterexample_collisions = outcome.collisions;
      break;
    }
  }
  return result;
}

/// Checks verify_adversarial_parallel against the replay at several
/// thread counts; returns the replayed result.
VerifyResult expect_parallel_matches_replay(const SinglePathRouting& routing,
                                            const AdversarialOptions& options,
                                            std::uint64_t seed) {
  const FoldedClos& ft = routing.ftree();
  const auto cache = routing::RouteCache::materialize(routing);
  const auto expect = replay_restarts(ft, cache, options, seed);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ThreadPool pool(threads);
    expect_same_verify(
        verify_adversarial_parallel(ft, routing, options, seed, pool), expect);
  }
  return expect;
}

TEST(ParallelAdversarial, MergedResultEqualsRestartReplay) {
  // m < n^2 on 15 leaves: restart 0's shuffled start already collides,
  // so the merged result is that start after one evaluation.
  const FoldedClos blocking(FtreeParams{3, 4, 5});
  const DModKRouting dmodk(blocking);
  const AdversarialOptions options{.restarts = 12, .steps_per_restart = 250};
  const auto first = adversarial_restart(
      blocking, routing::RouteCache::materialize(dmodk),
      options.steps_per_restart, adversarial_restart_seed(17, 0), true);
  ASSERT_GT(first.collisions, 0U);
  ASSERT_EQ(first.evaluations, 1U);
  expect_parallel_matches_replay(dmodk, options, 17);

  // Short climbs at m = n^2: restart 0 ends clean, so the merge must
  // sum its evaluations (at most steps + 1 each) into the first
  // colliding restart's.
  const FoldedClos later(FtreeParams{3, 9, 4});
  const AdversarialOptions short_climbs{10, 5};
  const auto later_result =
      expect_parallel_matches_replay(DModKRouting(later), short_climbs, 1);
  ASSERT_FALSE(later_result.nonblocking);
  EXPECT_GT(later_result.permutations_checked,
            short_climbs.steps_per_restart + 1U);

  // Theorem 3 routing: every restart runs its full budget, none collides.
  const FoldedClos clean(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting yuan(clean);
  EXPECT_TRUE(expect_parallel_matches_replay(yuan, AdversarialOptions{4, 200},
                                             11)
                  .nonblocking);
}

TEST(ParallelAdversarial, FindsRareBlockingAndVerifiesCounterexample) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const DModKRouting routing(ft);
  ThreadPool pool(4);
  const auto result = verify_adversarial_parallel(
      ft, routing, AdversarialOptions{10, 1000}, 7, pool);
  ASSERT_FALSE(result.nonblocking);
  ASSERT_TRUE(result.counterexample.has_value());
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(*result.counterexample));
  EXPECT_EQ(map.colliding_pairs(), result.counterexample_collisions);
}

TEST(ParallelAdversarial, StaysCleanOnNonblockingScheme) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  ThreadPool pool(4);
  const auto result = verify_adversarial_parallel(
      ft, routing, AdversarialOptions{3, 200}, 11, pool);
  EXPECT_TRUE(result.nonblocking);
  EXPECT_GE(result.permutations_checked, 3U);
}

TEST(ParallelWorstCase, ThreadCountIndependentAndVerified) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  const DModKRouting routing(ft);
  const AdversarialOptions options{4, 300};
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto a = worst_case_search_parallel(ft, routing, options, 21, pool1);
  const auto b = worst_case_search_parallel(ft, routing, options, 21, pool8);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.permutation, b.permutation);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_GT(a.collisions, 0U);
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(a.permutation));
  EXPECT_EQ(map.colliding_pairs(), a.collisions);
}

TEST(ParallelAdversarial, RestartSeedsAreDistinct) {
  // SplitMix64 scrambling: consecutive restart indices and nearby master
  // seeds must not collide.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t master : {0ULL, 1ULL, 42ULL}) {
    for (std::uint32_t restart = 0; restart < 64; ++restart) {
      seeds.insert(adversarial_restart_seed(master, restart));
    }
  }
  EXPECT_EQ(seeds.size(), 3U * 64U);
}

/// FNV-1a over a pattern's (src, dst) ids.
std::uint64_t pattern_digest(const Permutation& pattern) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto sd : pattern) {
    h = (h ^ sd.src.value) * 1099511628211ULL;
    h = (h ^ sd.dst.value) * 1099511628211ULL;
  }
  return h;
}

// Pinned: values recorded from the LinkLoadMap scorer this replaced.
// Both the pair-by-pair walk (as_pattern_router) and a path-vector
// router (dmodk_factory) must reproduce them at any thread count.
TEST(ParallelPinned, VerifyRandomDmodkCounterexample) {
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const DModKRouting routing(ft);
  for (const std::size_t threads : {1U, 3U}) {
    ThreadPool pool(threads);
    for (const auto& factory : {factory_for(routing), dmodk_factory(ft)}) {
      const auto result = verify_random_parallel(ft, factory, 5000, 2026, pool);
      EXPECT_FALSE(result.nonblocking);
      EXPECT_EQ(result.permutations_checked, 22U);
      EXPECT_EQ(result.counterexample_collisions, 1U);
      ASSERT_TRUE(result.counterexample.has_value());
      const auto& pattern = *result.counterexample;
      ASSERT_EQ(pattern.size(), 31U);
      const Permutation head{{LeafId{0}, LeafId{29}}, {LeafId{1}, LeafId{8}},
                             {LeafId{2}, LeafId{11}}, {LeafId{3}, LeafId{13}},
                             {LeafId{4}, LeafId{2}},  {LeafId{6}, LeafId{21}}};
      EXPECT_TRUE(std::equal(head.begin(), head.end(), pattern.begin()));
      EXPECT_EQ(pattern_digest(pattern), 7578682495924082801ULL);
    }
  }
}

TEST(ParallelPinned, EstimateBlockingDmodk) {
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const DModKRouting routing(ft);
  for (const std::size_t threads : {1U, 3U}) {
    ThreadPool pool(threads);
    for (const auto& factory : {factory_for(routing), dmodk_factory(ft)}) {
      const auto est = estimate_blocking_parallel(ft, factory, 3000, 77, pool, 7);
      EXPECT_EQ(est.trials, 3000U);
      EXPECT_EQ(est.blocked, 2116U);
      EXPECT_EQ(est.blocking_probability, 0.70533333333333337);
      EXPECT_EQ(est.mean_colliding_pairs, 1.1916666666666667);
      EXPECT_EQ(est.mean_max_link_load, 1.7053333333333334);
      EXPECT_EQ(est.ci95_half_width, 0.016313913432904326);
    }
  }
}

// --- one RouteCache per sampler call ------------------------------------

std::uint64_t cache_builds() {
  return obs::metrics().counter("route_cache.builds").value();
}

/// The same routing as a router PatternScorer cannot see through: scored
/// from its path vectors, the reference for the cached scoring.
PatternRouterFactory opaque_factory(const SinglePathRouting& routing) {
  return [&routing](std::uint64_t) -> PatternRouter {
    return [&routing](const Permutation& p) { return routing.route_all(p); };
  };
}

/// Runs `call` and checks it called `factory` `calls` times and built
/// `builds` RouteCaches.
template <typename Call>
void expect_builds(std::atomic<std::uint32_t>& factory_calls,
                   std::uint32_t calls, std::uint64_t builds,
                   const Call& call) {
  factory_calls = 0;
  const auto before = cache_builds();
  call();
  EXPECT_EQ(factory_calls.load(), calls);
  EXPECT_EQ(cache_builds() - before, builds);
}

TEST(ParallelSharedCache, SamplersCallTheFactoryOncePerChunkAndBuildOneCache) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  const FoldedClos ft(FtreeParams{3, 4, 5});  // d-mod-k blocks
  const DModKRouting dmodk(ft);
  const FoldedClos small(FtreeParams{2, 4, 3});  // 6 leaves, 720 ranks
  const YuanNonblockingRouting yuan(small);
  ThreadPool reference_pool(1);
  const auto verify_expect = verify_random_parallel(
      ft, opaque_factory(dmodk), 400, 21, reference_pool, 8);
  ASSERT_FALSE(verify_expect.nonblocking);
  const auto few_expect = verify_random_parallel(
      ft, opaque_factory(dmodk), 5, 21, reference_pool, 8);
  const auto blocking_expect = estimate_blocking_parallel(
      ft, opaque_factory(dmodk), 300, 9, reference_pool, 8);
  const auto exhaustive_expect =
      verify_exhaustive(small, opaque_factory(yuan)(0));
  ASSERT_TRUE(exhaustive_expect.nonblocking);  // every shard runs

  std::atomic<std::uint32_t> calls{0};
  const auto counting = [&calls](const SinglePathRouting& routing) {
    return PatternRouterFactory([&calls, &routing](std::uint64_t) {
      ++calls;
      return as_pattern_router(routing);
    });
  };
  for (const std::size_t threads : {1U, 2U, 4U}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    expect_builds(calls, 8, 1, [&] {
      expect_same_verify(
          verify_random_parallel(ft, counting(dmodk), 400, 21, pool, 8),
          verify_expect);
    });
    expect_builds(calls, 0, 1, [&] {  // no factory: the routing overload
      expect_same_verify(verify_random_parallel(ft, dmodk, 400, 21, pool, 8),
                         verify_expect);
    });
    // 5 trials on 15 leaves: no table pays, so the 5 chunks that run
    // (5..7 never do) score pair by pair.
    expect_builds(calls, 5, 0, [&] {
      expect_same_verify(
          verify_random_parallel(ft, counting(dmodk), 5, 21, pool, 8),
          few_expect);
    });
    expect_builds(calls, 8, 1, [&] {
      const auto est =
          estimate_blocking_parallel(ft, counting(dmodk), 300, 9, pool, 8);
      EXPECT_EQ(est.blocked, blocking_expect.blocked);
      EXPECT_EQ(est.mean_colliding_pairs, blocking_expect.mean_colliding_pairs);
      EXPECT_EQ(est.mean_max_link_load, blocking_expect.mean_max_link_load);
    });
    const auto shards = static_cast<std::uint32_t>(16 * pool.thread_count());
    expect_builds(calls, shards, 1, [&] {
      expect_same_verify(
          verify_exhaustive_parallel(small, counting(yuan), pool),
          exhaustive_expect);
    });
  }
}

TEST(ParallelSharedCache, ChunksOfAnotherRoutingScoreFromTheirOwnCache) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  const FoldedClos ft(FtreeParams{3, 4, 5});
  const DModKRouting dmodk(ft);
  const SModKRouting smodk(ft);
  // The chunk seed picks the routing, so each chunk's routing is fixed.
  const auto pick = [&](std::uint64_t seed) -> const SinglePathRouting& {
    return (seed & 1) != 0 ? static_cast<const SinglePathRouting&>(smodk)
                           : dmodk;
  };
  const PatternRouterFactory opaque = [&](std::uint64_t seed) -> PatternRouter {
    const SinglePathRouting& routing = pick(seed);
    return [&routing](const Permutation& p) { return routing.route_all(p); };
  };
  ThreadPool reference_pool(1);
  const auto verify_expect =
      verify_random_parallel(ft, opaque, 400, 21, reference_pool, 8);
  const auto blocking_expect =
      estimate_blocking_parallel(ft, opaque, 300, 9, reference_pool, 8);

  // Chunk 0's router is built first, on the calling thread: every later
  // call that picks the other routing builds a cache of its own.
  std::mutex mutex;
  std::vector<const SinglePathRouting*> picked;
  const PatternRouterFactory mixed = [&](std::uint64_t seed) {
    const SinglePathRouting& routing = pick(seed);
    const std::scoped_lock lock(mutex);
    picked.push_back(&routing);
    return as_pattern_router(routing);
  };
  const auto own_builds = [&] {
    return static_cast<std::uint64_t>(
        std::count_if(picked.begin(), picked.end(),
                      [&](const auto* r) { return r != picked.front(); }));
  };
  for (const std::size_t threads : {1U, 2U, 4U}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    picked.clear();
    auto before = cache_builds();
    expect_same_verify(verify_random_parallel(ft, mixed, 400, 21, pool, 8),
                       verify_expect);
    ASSERT_EQ(picked.size(), 8U);
    EXPECT_GT(own_builds(), 0U);  // both routings occur among the chunks
    EXPECT_EQ(cache_builds() - before, 1 + own_builds());

    picked.clear();
    before = cache_builds();
    const auto est = estimate_blocking_parallel(ft, mixed, 300, 9, pool, 8);
    EXPECT_EQ(cache_builds() - before, 1 + own_builds());
    EXPECT_EQ(est.blocked, blocking_expect.blocked);
    EXPECT_EQ(est.mean_colliding_pairs, blocking_expect.mean_colliding_pairs);
    EXPECT_EQ(est.mean_max_link_load, blocking_expect.mean_max_link_load);
  }
}

// --- verify.perms_evaluated: once per driver call -------------------------

TEST(ParallelPermsEvaluated, CounterAddsEachDriversReturnedCount) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  const auto evaluated = [] {
    return obs::metrics().counter("verify.perms_evaluated").value();
  };
  // Counts the calls' permutations and checks the counter moved by
  // exactly the count the call returned.
  const auto expect_counted = [&](const char* driver, const auto& call) {
    const auto before = evaluated();
    const std::uint64_t returned = call();
    EXPECT_GT(returned, 0U) << driver;
    EXPECT_EQ(evaluated() - before, returned) << driver;
  };
  const FoldedClos blocking(FtreeParams{2, 2, 4});  // 8 leaves, d-mod-k blocks
  const FoldedClos clean(FtreeParams{2, 4, 3});     // 6 leaves, Theorem 3
  const DModKRouting dmodk(blocking);
  const YuanNonblockingRouting yuan(clean);
  const AdversarialOptions options{4, 60};
  for (const std::size_t threads : {1U, 4U}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    for (const auto* routing :
         std::vector<const SinglePathRouting*>{&dmodk, &yuan}) {
      SCOPED_TRACE(routing->name());
      const FoldedClos& ft = routing->ftree();
      const auto router = as_pattern_router(*routing);
      const PatternRouterFactory factory = [&router](std::uint64_t) {
        return router;
      };
      Xoshiro256 rng(3);
      expect_counted("estimate_blocking", [&] {
        return estimate_blocking(ft, router, 50, rng).trials;
      });
      expect_counted("estimate_blocking_parallel", [&] {
        return estimate_blocking_parallel(ft, factory, 50, 7, pool).trials;
      });
      expect_counted("verify_random", [&] {
        return verify_random(ft, router, 50, rng).permutations_checked;
      });
      expect_counted("verify_random_parallel", [&] {
        return verify_random_parallel(ft, *routing, 50, 7, pool)
            .permutations_checked;
      });
      expect_counted("verify_exhaustive", [&] {
        return verify_exhaustive(ft, router).permutations_checked;
      });
      expect_counted("verify_exhaustive_parallel", [&] {
        return verify_exhaustive_parallel(ft, factory, pool)
            .permutations_checked;
      });
      expect_counted("verify_adversarial", [&] {
        return verify_adversarial(ft, *routing, options, rng)
            .permutations_checked;
      });
      expect_counted("verify_adversarial (router)", [&] {
        return verify_adversarial(ft, router, options, rng)
            .permutations_checked;
      });
      expect_counted("verify_adversarial_parallel", [&] {
        return verify_adversarial_parallel(ft, *routing, options, 7, pool)
            .permutations_checked;
      });
      expect_counted("worst_case_search", [&] {
        return worst_case_search(ft, *routing, options, rng).evaluations;
      });
      expect_counted("worst_case_search (router)", [&] {
        return worst_case_search(ft, router, options, rng).evaluations;
      });
      expect_counted("worst_case_search_parallel", [&] {
        return worst_case_search_parallel(ft, *routing, options, 7, pool)
            .evaluations;
      });
    }
  }
}

TEST(ParallelAnalysis, RejectsZeroTrials) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  ThreadPool pool(2);
  EXPECT_THROW((void)estimate_blocking_parallel(ft, dmodk_factory(ft), 0, 1,
                                                pool),
               precondition_error);
}

}  // namespace
}  // namespace nbclos
