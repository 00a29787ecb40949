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
/// (analysis/contention.hpp) in one pass over its SD pairs.  When the
/// router wraps a SinglePathRouting (as_pattern_router) the pass reads
/// the permutation's target vector against one RouteCache of the
/// routing, materialized once per call (the parallel samplers lend one
/// to every chunk), as the hill climb does, provided the call scores at
/// least as many permutations as the fabric has leaves and the table
/// fits kMaxScoringCacheBytes; otherwise the pass calls the routing's
/// top_for per pair.  Any other router is scored through its path
/// vector.  A hill-climb step is scored by one of two evaluators:
///   * full re-evaluation of the whole pattern through a PatternScorer
///     that builds no table (any router; the tests' reference, which
///     reads the routing itself, not the cache the delta side replays);
///   * cached delta evaluation (SwapDeltaState, analysis/delta.hpp) for
///     single-path deterministic routings: a step removes and adds only
///     the <= 4 SD pairs a swap touches, each as two PermutationLoad
///     counter updates from a RouteCache, which is what makes large
///     adversarial budgets and the parallel drivers in
///     analysis/parallel.hpp affordable.
/// Every driver adds the permutations it returns as scored to the obs
/// counter verify.perms_evaluated, once per call.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/topology/fat_tree.hpp"

namespace nbclos {

/// Route a whole pattern at once (adaptive routers need the pattern).
using PatternRouter =
    std::function<std::vector<FtreePath>(const Permutation&)>;

/// The callable as_pattern_router wraps: route_all through one
/// SinglePathRouting.  PatternScorer recognizes it
/// (PatternRouter::target) and scores from a RouteCache of the routing
/// instead of calling it.
struct SinglePathPatternRouter {
  const SinglePathRouting* routing;

  [[nodiscard]] std::vector<FtreePath> operator()(
      const Permutation& pattern) const {
    return routing->route_all(pattern);
  }
};

/// Wrap a SinglePathRouting as a PatternRouter (a SinglePathPatternRouter).
[[nodiscard]] PatternRouter as_pattern_router(const SinglePathRouting& routing);

/// The routing a SinglePathPatternRouter wraps; null for any other router.
[[nodiscard]] const SinglePathRouting* wrapped_single_path(
    const PatternRouter& router);

/// Whether scoring `scores` permutations of a single-path routing over
/// `ftree` should read a RouteCache rather than call top_for per pair.
/// Building the table costs one top_for per ordered pair (leafs^2) and
/// saves about one per scored pair (scores * leafs), so it pays once
/// scores >= leafs; the table (2 bytes a pair) must fit in
/// kMaxScoringCacheBytes (5,792 leaves), so a larger fabric is scored
/// pair by pair at any trial count; and the fabric needs
/// m < RouteCache::kTopLimit.
inline constexpr std::uint64_t kMaxScoringCacheBytes = std::uint64_t{64} << 20;
[[nodiscard]] bool scoring_cache_pays(const FoldedClos& ftree,
                                      std::uint64_t scores);

/// Scores permutations under one PatternRouter into a reused
/// PermutationLoad.  A SinglePathPatternRouter is scored from a
/// RouteCache of its routing (a lent one, or one the scorer materializes
/// when scoring_cache_pays) or else pair by pair from its top_for; any
/// other router through router(pattern).  Holds pointers to `router` and
/// a lent `cache`, which must outlive it.
class PatternScorer {
 public:
  /// `scores`: how many permutations the caller expects to score, which
  /// decides whether a single-path router is worth a cache of its own
  /// (0 never builds one).
  PatternScorer(const FoldedClos& ftree, const PatternRouter& router,
                std::uint64_t scores);
  /// Score a single-path router from `cache`, shared read-only.
  /// \pre `cache` was materialized from the routing `router` wraps.
  PatternScorer(const FoldedClos& ftree, const PatternRouter& router,
                const routing::RouteCache& cache);
  /// Accounts the cached scores' pair reads as route_cache.lookups.
  ~PatternScorer();

  PatternScorer(const PatternScorer&) = delete;
  PatternScorer& operator=(const PatternScorer&) = delete;

  /// Route and score the permutation in which leaf s sends to target[s]
  /// (nothing when target[s] == s); the loads stay valid until the next
  /// call.  \pre target.size() == leaf_count, and no two leaves send to
  /// one destination.
  const PermutationLoad& score(const std::vector<std::uint32_t>& target);

  /// Whether score() reads a RouteCache (lent or its own).
  [[nodiscard]] bool cached() const noexcept { return cache_ != nullptr; }

 private:
  const PatternRouter* router_;
  const SinglePathRouting* single_;  ///< the routing router_ wraps, or null
  std::optional<routing::RouteCache> own_cache_;
  const routing::RouteCache* cache_ = nullptr;  ///< null: no table
  std::uint64_t cached_scores_ = 0;  ///< scores read from cache_
  Permutation pattern_;  ///< reused buffer for router(pattern)
  PermutationLoad load_;
};

/// Add one driver call's scored permutations to the obs counter
/// verify.perms_evaluated.  Every driver in this header, blocking.hpp and
/// parallel.hpp calls it once, with the count it returns.
void note_perms_evaluated(std::uint64_t permutations);

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

/// verify_random through a caller's scorer: the body of the overload
/// above and of every chunk of verify_random_parallel.
[[nodiscard]] VerifyResult verify_random(const FoldedClos& ftree,
                                         PatternScorer& scorer,
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
