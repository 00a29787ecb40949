#include "nbclos/analysis/verifier.hpp"

#include <algorithm>
#include <numeric>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/delta.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/single_path.hpp"

namespace nbclos {

PatternRouter as_pattern_router(const SinglePathRouting& routing) {
  return SinglePathPatternRouter{&routing};
}

PatternScorer::PatternScorer(const FoldedClos& ftree,
                             const PatternRouter& router)
    : router_(&router), load_(ftree) {
  if (const auto* single = router.target<SinglePathPatternRouter>()) {
    single_path_ = single->routing;
  }
}

const PermutationLoad& PatternScorer::score(const Permutation& pattern) {
  if (single_path_ != nullptr) {
    load_.load(pattern, *single_path_);
  } else {
    load_.load(pattern, (*router_)(pattern));
  }
  return load_;
}

namespace {

/// Full-re-evaluation counterpart of SwapDeltaState: same interface, but
/// collisions() scores the whole pattern through a PatternScorer.
/// Evaluation is lazy so that a revert_swap never pays for scoring,
/// matching the cost profile of the pre-delta hill climb while reusing
/// its buffers.
class FullSwapState {
 public:
  FullSwapState(const FoldedClos& ftree, const PatternRouter& router)
      : scorer_(ftree, router) {}

  void reset(const std::vector<std::uint32_t>& target) {
    target_ = target;
    dirty_ = true;
  }

  void apply_swap(std::uint32_t i, std::uint32_t j) {
    prev_collisions_ = collisions();
    std::swap(target_[i], target_[j]);
    dirty_ = true;
  }

  void revert_swap(std::uint32_t i, std::uint32_t j) {
    std::swap(target_[i], target_[j]);
    collisions_ = prev_collisions_;
    dirty_ = false;
  }

  [[nodiscard]] std::uint64_t collisions() {
    if (dirty_) {
      permutation_from_targets(target_, pattern_);
      collisions_ = scorer_.score(pattern_).colliding_pairs();
      dirty_ = false;
    }
    return collisions_;
  }

  [[nodiscard]] Permutation pattern() const {
    return permutation_from_targets(target_);
  }

 private:
  PatternScorer scorer_;
  std::vector<std::uint32_t> target_;
  Permutation pattern_;
  std::uint64_t collisions_ = 0;
  std::uint64_t prev_collisions_ = 0;
  bool dirty_ = true;
};

/// The hill climb shared by both evaluation strategies: accept a swap
/// when it does not decrease the colliding-pair count, revert otherwise.
template <typename State>
RestartResult run_restart(State& state, std::uint32_t leafs,
                          std::uint32_t steps, std::uint64_t seed,
                          bool stop_on_positive) {
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> target(leafs);
  std::iota(target.begin(), target.end(), 0U);
  shuffle(target.begin(), target.end(), rng);
  state.reset(target);

  RestartResult result;
  result.collisions = state.collisions();
  result.evaluations = 1;
  for (std::uint32_t step = 0;
       step < steps && !(stop_on_positive && result.collisions > 0); ++step) {
    const auto i = static_cast<std::uint32_t>(rng.below(leafs));
    const auto j = static_cast<std::uint32_t>(rng.below(leafs));
    if (i == j) continue;
    state.apply_swap(i, j);
    const auto collisions = state.collisions();
    ++result.evaluations;
    if (collisions >= result.collisions) {
      result.collisions = collisions;
    } else {
      state.revert_swap(i, j);
    }
  }
  result.pattern = state.pattern();
  return result;
}

/// Serial restart drivers: per-restart seeds drawn from the caller's rng
/// up front, so restarts stay independent (and mergeable in index order)
/// exactly like the parallel drivers in analysis/parallel.cpp.
template <typename RoutingLike>
VerifyResult verify_adversarial_impl(const FoldedClos& ftree,
                                     const RoutingLike& routing,
                                     const AdversarialOptions& options,
                                     Xoshiro256& rng) {
  VerifyResult result;
  result.nonblocking = true;
  obs::ScopedSpan span("verify.adversarial", "verify");
  span.arg("restarts", static_cast<double>(options.restarts));
  auto& climb_steps = obs::metrics().histogram("verify.climb_steps",
                                               1'000'000);
  for (std::uint32_t restart = 0; restart < options.restarts; ++restart) {
    const auto outcome = adversarial_restart(
        ftree, routing, options.steps_per_restart, rng(),
        /*stop_on_positive=*/true);
    if (outcome.evaluations > 0) climb_steps.record(outcome.evaluations);
    result.permutations_checked += outcome.evaluations;
    if (outcome.collisions > 0) {
      result.nonblocking = false;
      result.counterexample = outcome.pattern;
      result.counterexample_collisions = outcome.collisions;
      return result;
    }
  }
  return result;
}

template <typename RoutingLike>
WorstCaseResult worst_case_search_impl(const FoldedClos& ftree,
                                       const RoutingLike& routing,
                                       const AdversarialOptions& options,
                                       Xoshiro256& rng) {
  WorstCaseResult result;
  for (std::uint32_t restart = 0; restart < options.restarts; ++restart) {
    auto outcome = adversarial_restart(ftree, routing,
                                       options.steps_per_restart, rng(),
                                       /*stop_on_positive=*/false);
    result.evaluations += outcome.evaluations;
    if (outcome.collisions > result.collisions ||
        result.permutation.empty()) {
      result.collisions = outcome.collisions;
      result.permutation = std::move(outcome.pattern);
    }
  }
  return result;
}

}  // namespace

VerifyResult verify_exhaustive(const FoldedClos& ftree,
                               const PatternRouter& router) {
  VerifyResult result;
  result.nonblocking = true;
  obs::ScopedSpan span("verify.exhaustive", "verify");
  PatternScorer scorer(ftree, router);
  result.permutations_checked = for_each_permutation_in_range(
      ftree.leaf_count(), 0, factorial(ftree.leaf_count()),
      [&](const Permutation& pattern) {
        const auto collisions = scorer.score(pattern).colliding_pairs();
        if (collisions > 0) {
          result.nonblocking = false;
          result.counterexample = pattern;
          result.counterexample_collisions = collisions;
          return false;
        }
        return true;
      });
  obs::metrics().counter("verify.perms_evaluated")
      .add(result.permutations_checked);
  return result;
}

VerifyResult verify_random(const FoldedClos& ftree,
                           const PatternRouter& router, std::uint64_t trials,
                           Xoshiro256& rng) {
  VerifyResult result;
  result.nonblocking = true;
  PatternScorer scorer(ftree, router);
  std::vector<std::uint32_t> target;
  Permutation pattern;
  for (std::uint64_t t = 0; t < trials; ++t) {
    random_permutation(ftree.leaf_count(), rng, target, pattern);
    ++result.permutations_checked;
    const auto collisions = scorer.score(pattern).colliding_pairs();
    if (collisions > 0) {
      result.nonblocking = false;
      result.counterexample = pattern;
      result.counterexample_collisions = collisions;
      return result;
    }
  }
  return result;
}

RestartResult adversarial_restart(const FoldedClos& ftree,
                                  const PatternRouter& router,
                                  std::uint32_t steps, std::uint64_t seed,
                                  bool stop_on_positive) {
  FullSwapState state(ftree, router);
  return run_restart(state, ftree.leaf_count(), steps, seed, stop_on_positive);
}

RestartResult adversarial_restart(const FoldedClos& ftree,
                                  const routing::RouteCache& cache,
                                  std::uint32_t steps, std::uint64_t seed,
                                  bool stop_on_positive) {
  SwapDeltaState state(ftree, cache);
  return run_restart(state, ftree.leaf_count(), steps, seed, stop_on_positive);
}

VerifyResult verify_adversarial(const FoldedClos& ftree,
                                const PatternRouter& router,
                                const AdversarialOptions& options,
                                Xoshiro256& rng) {
  return verify_adversarial_impl(ftree, router, options, rng);
}

VerifyResult verify_adversarial(const FoldedClos& ftree,
                                const SinglePathRouting& routing,
                                const AdversarialOptions& options,
                                Xoshiro256& rng) {
  // One cache materialization amortized across every restart: the climbs
  // replay flat link runs instead of re-routing <= 4 pairs per step.
  const auto cache = routing::RouteCache::materialize(routing);
  return verify_adversarial_impl(ftree, cache, options, rng);
}

WorstCaseResult worst_case_search(const FoldedClos& ftree,
                                  const PatternRouter& router,
                                  const AdversarialOptions& options,
                                  Xoshiro256& rng) {
  return worst_case_search_impl(ftree, router, options, rng);
}

WorstCaseResult worst_case_search(const FoldedClos& ftree,
                                  const SinglePathRouting& routing,
                                  const AdversarialOptions& options,
                                  Xoshiro256& rng) {
  const auto cache = routing::RouteCache::materialize(routing);
  return worst_case_search_impl(ftree, cache, options, rng);
}

}  // namespace nbclos
