/// \file delta.hpp
/// \brief Delta-evaluated hill-climb state for the adversarial verifier.
///
/// The adversarial searches mutate a full target vector (leaf s sends to
/// target[s]) by swapping two entries.  For a *single-path deterministic*
/// routing each SD pair's path is fixed independently of the rest of the
/// pattern, so a swap of targets i and j changes at most four SD pairs:
/// (i, old ti), (j, old tj) disappear and (i, tj), (j, ti) appear (fixed
/// points drop out).  SwapDeltaState keeps a persistent PermutationLoad
/// (analysis/contention.hpp) and removes and adds exactly those pairs
/// from an immutable RouteCache: each is one top code and two counter
/// updates, and the colliding-pair count is a running sum.  A hill-climb
/// step therefore costs O(1) instead of O(leafs).
///
/// The verifier scores a climb one of two ways: full re-evaluation of
/// the whole pattern through a PatternRouter (any router, and the tests'
/// reference), or this cached delta state (single-path routings only).
/// Invariant (checked by property tests): after any sequence of
/// apply_swap calls, collisions() equals a from-scratch evaluation of the
/// current pattern.  This only holds for pattern-independent routers;
/// adaptive or centralized schemes must use full re-evaluation.
#pragma once

#include <cstdint>
#include <vector>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/topology/fat_tree.hpp"

namespace nbclos {

class SwapDeltaState {
 public:
  /// `cache` must outlive the state and must have been materialized from
  /// a routing over `ftree`; searches share one immutable cache across
  /// restarts (and across threads).
  SwapDeltaState(const FoldedClos& ftree, const routing::RouteCache& cache)
      : cache_(&cache), load_(ftree) {
    NBCLOS_REQUIRE(cache.leaf_count() == ftree.leaf_count() &&
                       !cache.any_unroutable(),
                   "route cache does not match the topology");
  }

  ~SwapDeltaState() {
    // Bulk-flush the local lookup count (obs) — the hot loop never
    // touches a shared counter.
    routing::RouteCache::note_lookups(lookups_);
  }
  SwapDeltaState(const SwapDeltaState&) = delete;
  SwapDeltaState& operator=(const SwapDeltaState&) = delete;

  /// Replace the whole target vector and reload the counters (O(leafs)).
  /// \pre `target` is a permutation of the leaves.
  void reset(const std::vector<std::uint32_t>& target) {
    NBCLOS_REQUIRE(target.size() == cache_->leaf_count(),
                   "target vector must cover every leaf");
    target_ = target;
    load_.load(target_, *cache_);
    for (std::uint32_t s = 0; s < target_.size(); ++s) {
      if (target_[s] != s) ++lookups_;
    }
  }

  /// Swap targets i and j, delta-updating the loads.  \pre i != j,
  /// both in range (checked in Debug builds only — this runs once per
  /// hill-climb step).
  void apply_swap(std::uint32_t i, std::uint32_t j) {
    NBCLOS_DEBUG_CHECK(i != j && i < target_.size() && j < target_.size(),
                       "invalid swap indices");
    remove_leaf(i);
    remove_leaf(j);
    std::swap(target_[i], target_[j]);
    add_leaf(i);
    add_leaf(j);
  }

  /// Undo apply_swap(i, j): a swap is its own inverse, so this restores
  /// the previous targets and loads exactly.
  void revert_swap(std::uint32_t i, std::uint32_t j) { apply_swap(i, j); }

  /// Colliding path pairs of the current pattern — O(1), a running sum.
  [[nodiscard]] std::uint64_t collisions() const noexcept {
    return load_.colliding_pairs();
  }

  [[nodiscard]] const std::vector<std::uint32_t>& targets() const noexcept {
    return target_;
  }

  /// Materialize the current pattern (allocates; not on the hot path).
  [[nodiscard]] Permutation pattern() const {
    return permutation_from_targets(target_);
  }

 private:
  /// Load (or unload) leaf s's current pair from the cache; paths are
  /// pattern-independent, so the pair added for (s, target[s]) is the
  /// pair to remove later.
  void add_leaf(std::uint32_t s) {
    if (target_[s] == s) return;
    ++lookups_;
    load_.add(*cache_, s, target_[s]);
  }

  void remove_leaf(std::uint32_t s) {
    if (target_[s] == s) return;
    ++lookups_;
    load_.remove(*cache_, s, target_[s]);
  }

  const routing::RouteCache* cache_;
  std::vector<std::uint32_t> target_;
  PermutationLoad load_;
  std::uint64_t lookups_ = 0;  ///< local count, flushed to obs on destroy
};

}  // namespace nbclos
