/// \file verifier.hpp
/// \brief Empirical nonblocking verification (Definition 2).
///
/// A network + routing is nonblocking when *no* permutation causes link
/// contention.  The verifier attacks that universally-quantified claim
/// three ways:
///   * exhaustive enumeration of all full permutations (tiny networks —
///     this is a proof for the instance);
///   * uniform random sampling (statistical evidence at scale);
///   * adversarial hill-climbing that mutates a permutation by swapping
///     destinations to maximize colliding pairs (finds counterexamples
///     random sampling misses, e.g. for D-mod-K style routings).
///
/// The router under test is abstracted as a function from a permutation
/// to its paths, so deterministic, adaptive, and centralized schemes all
/// fit one interface.  Every sampled or enumerated permutation is scored
/// one way: a PatternScorer loads it into a PermutationLoad
/// (analysis/contention.hpp) in one pass over its SD pairs, routing pair
/// by pair when the router wraps a SinglePathRouting (as_pattern_router)
/// and through the router's path vector otherwise.  A hill-climb step is
/// scored by one of two evaluators:
///   * full re-evaluation of the whole pattern through a PatternScorer
///     (any router; the tests' reference);
///   * cached delta evaluation (SwapDeltaState, analysis/delta.hpp) for
///     single-path deterministic routings: a step replays only the <= 4
///     SD pairs a swap touches from a RouteCache, which is what makes
///     large adversarial budgets and the parallel drivers in
///     analysis/parallel.hpp affordable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/topology/fat_tree.hpp"

namespace nbclos::routing {
class RouteCache;
}

namespace nbclos {

/// Route a whole pattern at once (adaptive routers need the pattern).
using PatternRouter =
    std::function<std::vector<FtreePath>(const Permutation&)>;

/// The callable as_pattern_router wraps: route_all through one
/// SinglePathRouting.  PatternScorer recognizes it
/// (PatternRouter::target) and routes pair by pair instead of calling it.
struct SinglePathPatternRouter {
  const SinglePathRouting* routing;

  [[nodiscard]] std::vector<FtreePath> operator()(
      const Permutation& pattern) const {
    return routing->route_all(pattern);
  }
};

/// Wrap a SinglePathRouting as a PatternRouter (a SinglePathPatternRouter).
[[nodiscard]] PatternRouter as_pattern_router(const SinglePathRouting& routing);

/// Scores permutations under one PatternRouter into a reused
/// PermutationLoad: pair by pair through the wrapped routing when the
/// router is a SinglePathPatternRouter, through router(pattern)
/// otherwise.  Holds a pointer to `router`, which must outlive it.
class PatternScorer {
 public:
  PatternScorer(const FoldedClos& ftree, const PatternRouter& router);

  /// Route and score one permutation; the loads stay valid until the
  /// next call.
  const PermutationLoad& score(const Permutation& pattern);

 private:
  const PatternRouter* router_;
  const SinglePathRouting* single_path_ = nullptr;
  PermutationLoad load_;
};

struct VerifyResult {
  bool nonblocking = false;  ///< no counterexample found within the budget
  std::uint64_t permutations_checked = 0;
  std::optional<Permutation> counterexample;  ///< a blocked permutation
  std::uint64_t counterexample_collisions = 0;
};

/// Exhaustively check every full permutation in lexicographic rank order,
/// stopping at the first (lowest-rank) counterexample.  \pre leaf_count
/// <= 10.  A `nonblocking == true` result is a proof for this instance;
/// `permutations_checked` is the rank of the counterexample + 1 when one
/// is found, else leaf_count!.  The parallel driver
/// (verify_exhaustive_parallel) returns bit-identical results.
[[nodiscard]] VerifyResult verify_exhaustive(const FoldedClos& ftree,
                                             const PatternRouter& router);

/// Check `trials` uniformly random full permutations.
[[nodiscard]] VerifyResult verify_random(const FoldedClos& ftree,
                                         const PatternRouter& router,
                                         std::uint64_t trials,
                                         Xoshiro256& rng);

/// Adversarial search: hill-climb from random starts, swapping pairs of
/// destinations; keeps a mutation when it does not decrease the number
/// of colliding path pairs.  Restarts are independent — each gets its
/// own seed — so they can be run in any order or in parallel without
/// changing the merged result.
struct AdversarialOptions {
  std::uint32_t restarts = 8;
  std::uint32_t steps_per_restart = 2000;
};

/// Outcome of one hill-climb restart — the building block both the
/// serial and parallel adversarial drivers shard over.
struct RestartResult {
  std::uint64_t collisions = 0;   ///< best colliding-pair count reached
  Permutation pattern;            ///< the pattern achieving it
  std::uint64_t evaluations = 0;  ///< permutations scored (incl. the start)
};

/// One restart with full re-evaluation per step (any PatternRouter).
/// `stop_on_positive` ends the climb as soon as collisions > 0 (the
/// verify use); otherwise the full step budget maximizes collisions.
[[nodiscard]] RestartResult adversarial_restart(const FoldedClos& ftree,
                                                const PatternRouter& router,
                                                std::uint32_t steps,
                                                std::uint64_t seed,
                                                bool stop_on_positive);

/// One delta-evaluated restart replaying a precomputed RouteCache
/// (routing/route_cache.hpp) instead of routing per step (single-path
/// deterministic routings only: paths must not depend on the rest of
/// the pattern).  Bit-identical to the PatternRouter overload over the
/// routing the cache was materialized from; the cache is immutable, so
/// many restarts (and threads) share one.
[[nodiscard]] RestartResult adversarial_restart(
    const FoldedClos& ftree, const routing::RouteCache& cache,
    std::uint32_t steps, std::uint64_t seed, bool stop_on_positive);

[[nodiscard]] VerifyResult verify_adversarial(const FoldedClos& ftree,
                                              const PatternRouter& router,
                                              const AdversarialOptions& options,
                                              Xoshiro256& rng);

/// Delta-evaluated overload: materializes one RouteCache and replays
/// O(path) per hill-climb step instead of re-routing all leafs.
[[nodiscard]] VerifyResult verify_adversarial(const FoldedClos& ftree,
                                              const SinglePathRouting& routing,
                                              const AdversarialOptions& options,
                                              Xoshiro256& rng);

/// Worst permutation found by a full hill-climb that MAXIMIZES colliding
/// path pairs (unlike verify_adversarial it never stops early), measuring
/// how badly a blocking routing can be made to perform.
struct WorstCaseResult {
  Permutation permutation;        ///< the worst pattern found
  std::uint64_t collisions = 0;   ///< its colliding path pairs
  std::uint64_t evaluations = 0;  ///< permutations scored
};

[[nodiscard]] WorstCaseResult worst_case_search(
    const FoldedClos& ftree, const PatternRouter& router,
    const AdversarialOptions& options, Xoshiro256& rng);

/// Delta-evaluated overload (see verify_adversarial above).
[[nodiscard]] WorstCaseResult worst_case_search(
    const FoldedClos& ftree, const SinglePathRouting& routing,
    const AdversarialOptions& options, Xoshiro256& rng);

}  // namespace nbclos
