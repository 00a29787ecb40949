#include "nbclos/analysis/parallel.hpp"

#include <atomic>
#include <chrono>
#include <optional>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos {

namespace {

/// Per-chunk trial counts: distribute `trials` over `chunks` as evenly
/// as possible (first `trials % chunks` chunks get one extra).
std::vector<std::uint64_t> chunk_sizes(std::uint64_t trials,
                                       std::uint32_t chunks) {
  NBCLOS_REQUIRE(chunks >= 1, "need at least one chunk");
  std::vector<std::uint64_t> sizes(chunks, trials / chunks);
  for (std::uint32_t c = 0; c < trials % chunks; ++c) ++sizes[c];
  return sizes;
}

std::uint64_t chunk_seed(std::uint64_t master, std::uint32_t chunk) {
  SplitMix64 sm(master ^ (0xA5A5A5A5ULL + chunk));
  return sm.next();
}

/// Monotonic nanoseconds for coarse (per-shard) obs timing.
std::uint64_t obs_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

BlockingEstimate estimate_blocking_parallel(
    const FoldedClos& ftree, const PatternRouterFactory& make_router,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks) {
  NBCLOS_REQUIRE(trials > 0, "need at least one trial");
  const auto sizes = chunk_sizes(trials, chunks);
  obs::ScopedSpan span("verify.blocking_estimate", "verify");
  span.arg("trials", static_cast<double>(trials));

  std::vector<BlockingSums> partials(chunks);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    if (sizes[c] == 0) continue;
    pool.submit([&, c] {
      Xoshiro256 rng(chunk_seed(seed, c));
      const auto router = make_router(chunk_seed(seed, c) ^ 0xC0FFEE);
      partials[c] = sample_blocking(ftree, router, sizes[c], rng);
    });
  }
  pool.wait_idle();

  BlockingSums sums;
  for (const auto& partial : partials) sums += partial;  // fixed merge order
  return sums.estimate();
}

VerifyResult verify_random_parallel(const FoldedClos& ftree,
                                    const PatternRouterFactory& make_router,
                                    std::uint64_t trials, std::uint64_t seed,
                                    ThreadPool& pool, std::uint32_t chunks) {
  const auto sizes = chunk_sizes(trials, chunks);
  obs::ScopedSpan span("verify.random", "verify");
  span.arg("trials", static_cast<double>(trials));
  std::vector<VerifyResult> partials(chunks);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    if (sizes[c] == 0) {
      partials[c].nonblocking = true;
      continue;
    }
    pool.submit([&, c] {
      Xoshiro256 rng(chunk_seed(seed, c));
      const auto router = make_router(chunk_seed(seed, c) ^ 0xC0FFEE);
      partials[c] = verify_random(ftree, router, sizes[c], rng);
    });
  }
  pool.wait_idle();

  VerifyResult result;
  result.nonblocking = true;
  for (const auto& partial : partials) {  // lowest failing chunk wins
    result.permutations_checked += partial.permutations_checked;
    if (result.nonblocking && !partial.nonblocking) {
      result.nonblocking = false;
      result.counterexample = partial.counterexample;
      result.counterexample_collisions = partial.counterexample_collisions;
    }
  }
  obs::metrics().counter("verify.perms_evaluated")
      .add(result.permutations_checked);
  return result;
}

VerifyResult verify_random_parallel(const FoldedClos& ftree,
                                    const SinglePathRouting& routing,
                                    std::uint64_t trials, std::uint64_t seed,
                                    ThreadPool& pool, std::uint32_t chunks) {
  return verify_random_parallel(
      ftree, [&routing](std::uint64_t) { return as_pattern_router(routing); },
      trials, seed, pool, chunks);
}

VerifyResult verify_exhaustive_parallel(const FoldedClos& ftree,
                                        const PatternRouterFactory& make_router,
                                        ThreadPool& pool,
                                        std::uint32_t shards) {
  const std::uint32_t leafs = ftree.leaf_count();
  NBCLOS_REQUIRE(leafs <= 11, "parallel exhaustive capped at 11!");
  const std::uint64_t total = factorial(leafs);
  if (shards == 0) {
    shards = static_cast<std::uint32_t>(16 * pool.thread_count());
  }
  if (shards > total) shards = static_cast<std::uint32_t>(total);

  struct ShardHit {
    std::uint64_t rank = 0;
    Permutation pattern;
    std::uint64_t collisions = 0;
  };
  std::vector<std::optional<ShardHit>> hits(shards);
  // Lowest counterexample rank found so far; ranks above it are dead.
  std::atomic<std::uint64_t> best_rank{UINT64_MAX};
  // Obs: when the winning counterexample is published (obs_now_ns), so
  // shards that observe the CAS-min and bail can report how quickly the
  // early-exit signal propagated.  Never read by the verification logic.
  std::atomic<std::uint64_t> publish_ns{0};

  obs::ScopedSpan span("verify.exhaustive", "verify");
  span.arg("shards", static_cast<double>(shards));
  span.arg("permutations", static_cast<double>(total));

  const std::uint64_t base = total / shards;
  const std::uint64_t extra = total % shards;
  std::uint64_t begin = 0;
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    const std::uint64_t end = begin + base + (shard < extra ? 1 : 0);
    const std::uint64_t shard_begin = begin;
    begin = end;
    pool.submit([&, shard, shard_begin, end] {
      const bool observe = obs::kEnabled && obs::enabled();
      const auto record_early_exit = [&] {
        if (!observe) return;
        const auto published = publish_ns.load(std::memory_order_relaxed);
        if (published == 0) return;
        obs::metrics()
            .histogram("verify.early_exit_us", 10'000'000)
            .record((obs_now_ns() - published) / 1000);
      };
      if (shard_begin > best_rank.load(std::memory_order_relaxed)) {
        record_early_exit();
        return;
      }
      const std::uint64_t shard_t0 = observe ? obs_now_ns() : 0;
      std::uint64_t evaluated = 0;
      bool early_exit = false;
      const auto router = make_router(chunk_seed(0, shard));
      PatternScorer scorer(ftree, router);
      std::uint64_t rank = shard_begin;
      for_each_permutation_in_range(
          ftree.leaf_count(), shard_begin, end,
          [&](const Permutation& pattern) {
            if (rank > best_rank.load(std::memory_order_relaxed)) {
              early_exit = true;
              return false;  // a lower-rank counterexample already exists
            }
            ++evaluated;
            const auto collisions = scorer.score(pattern).colliding_pairs();
            if (collisions > 0) {
              hits[shard] = ShardHit{rank, pattern, collisions};
              auto current = best_rank.load(std::memory_order_relaxed);
              while (rank < current &&
                     !best_rank.compare_exchange_weak(current, rank)) {
              }
              if (observe) {
                // First publication wins; losers raced a lower rank in.
                std::uint64_t expected = 0;
                publish_ns.compare_exchange_strong(expected, obs_now_ns(),
                                                   std::memory_order_relaxed);
              }
              return false;
            }
            ++rank;
            return true;
          });
      if (observe) {
        // Per-shard rank throughput + flushed-once totals (local counts
        // keep the permutation loop free of shared-metric traffic).
        auto& m = obs::metrics();
        m.counter("verify.perms_evaluated").add(evaluated);
        const std::uint64_t elapsed = obs_now_ns() - shard_t0;
        if (elapsed > 0 && evaluated > 0) {
          m.histogram("verify.shard_ranks_per_s", 1'000'000'000)
              .record(evaluated * 1'000'000'000 / elapsed);
        }
        if (early_exit) record_early_exit();
      }
    });
  }
  pool.wait_idle();

  VerifyResult result;
  result.nonblocking = true;
  result.permutations_checked = total;
  // The shard holding the globally lowest counterexample can never be
  // preempted (preemption requires an even lower rank), so the min over
  // shard hits is the same counterexample serial enumeration stops at.
  for (const auto& hit : hits) {
    if (!hit) continue;
    if (result.nonblocking || hit->rank < result.permutations_checked - 1) {
      result.nonblocking = false;
      result.counterexample = hit->pattern;
      result.counterexample_collisions = hit->collisions;
      result.permutations_checked = hit->rank + 1;
    }
  }
  return result;
}

std::uint64_t adversarial_restart_seed(std::uint64_t seed,
                                       std::uint32_t restart) {
  // Mix the master seed before offsetting by the restart index: a plain
  // `seed ^ (c + restart)` would let nearby master seeds share restart
  // seeds.  Distinct restarts always get distinct seeds (SplitMix64's
  // first output is a bijection of its initial state).
  SplitMix64 stream(seed ^ 0x5EEDF00DULL);
  SplitMix64 per_restart(stream.next() + restart);
  return per_restart.next();
}

VerifyResult verify_adversarial_parallel(const FoldedClos& ftree,
                                         const SinglePathRouting& routing,
                                         const AdversarialOptions& options,
                                         std::uint64_t seed, ThreadPool& pool) {
  std::vector<RestartResult> outcomes(options.restarts);
  obs::ScopedSpan span("verify.adversarial", "verify");
  span.arg("restarts", static_cast<double>(options.restarts));
  // Materialized once, shared read-only by every worker: restarts replay
  // the same flat link runs instead of re-routing on their own.
  const auto cache = routing::RouteCache::materialize(routing);
  std::atomic<std::uint32_t> first_failing{UINT32_MAX};

  // Restarts with an index above the lowest failing one cannot affect the
  // merged result, so they may be skipped opportunistically.
  for (std::uint32_t restart = 0; restart < options.restarts; ++restart) {
    pool.submit([&, restart] {
      if (restart > first_failing.load(std::memory_order_relaxed)) {
        obs::metrics().counter("verify.restarts_skipped").add(1);
        return;
      }
      outcomes[restart] = adversarial_restart(
          ftree, cache, options.steps_per_restart,
          adversarial_restart_seed(seed, restart), /*stop_on_positive=*/true);
      if (outcomes[restart].collisions > 0) {
        auto current = first_failing.load(std::memory_order_relaxed);
        while (restart < current &&
               !first_failing.compare_exchange_weak(current, restart)) {
        }
      }
    });
  }
  pool.wait_idle();

  VerifyResult result;
  result.nonblocking = true;
  if constexpr (obs::kEnabled) {
    // Hill-climb step counts per restart (the climbs themselves never
    // touch the registry — counts are flushed here, after the join).
    // Fixed geometry: the registry requires identical bounds per name.
    auto& steps = obs::metrics().histogram("verify.climb_steps", 1'000'000);
    for (const auto& outcome : outcomes) {
      if (outcome.evaluations > 0) steps.record(outcome.evaluations);
    }
  }
  for (auto& outcome : outcomes) {  // merge in restart index order
    result.permutations_checked += outcome.evaluations;
    if (outcome.collisions > 0) {
      result.nonblocking = false;
      result.counterexample = std::move(outcome.pattern);
      result.counterexample_collisions = outcome.collisions;
      break;  // identical to a serial run stopping at this restart
    }
  }
  return result;
}

WorstCaseResult worst_case_search_parallel(const FoldedClos& ftree,
                                           const SinglePathRouting& routing,
                                           const AdversarialOptions& options,
                                           std::uint64_t seed,
                                           ThreadPool& pool) {
  std::vector<RestartResult> outcomes(options.restarts);
  obs::ScopedSpan span("verify.worst_case", "verify");
  span.arg("restarts", static_cast<double>(options.restarts));
  const auto cache = routing::RouteCache::materialize(routing);
  for (std::uint32_t restart = 0; restart < options.restarts; ++restart) {
    pool.submit([&, restart] {
      outcomes[restart] = adversarial_restart(
          ftree, cache, options.steps_per_restart,
          adversarial_restart_seed(seed, restart), /*stop_on_positive=*/false);
    });
  }
  pool.wait_idle();

  WorstCaseResult result;
  if constexpr (obs::kEnabled) {
    auto& steps = obs::metrics().histogram("verify.climb_steps", 1'000'000);
    for (const auto& outcome : outcomes) {
      if (outcome.evaluations > 0) steps.record(outcome.evaluations);
    }
  }
  for (auto& outcome : outcomes) {  // max, lowest index on ties
    result.evaluations += outcome.evaluations;
    if (outcome.collisions > result.collisions || result.permutation.empty()) {
      result.collisions = outcome.collisions;
      result.permutation = std::move(outcome.pattern);
    }
  }
  return result;
}

}  // namespace nbclos
