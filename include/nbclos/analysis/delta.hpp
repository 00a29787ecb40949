/// \file delta.hpp
/// \brief Delta-evaluated hill-climb state for the adversarial verifier.
///
/// The adversarial searches mutate a full target vector (leaf s sends to
/// target[s]) by swapping two entries.  For a *single-path deterministic*
/// routing each SD pair's path is fixed independently of the rest of the
/// pattern, so a swap of targets i and j changes at most four SD pairs:
/// (i, old ti), (j, old tj) disappear and (i, tj), (j, ti) appear (fixed
/// points drop out).  SwapDeltaState keeps a persistent LinkLoadMap and
/// replays exactly those pairs' link runs from an immutable RouteCache,
/// making one hill-climb step four cache lookups plus counter updates
/// instead of O(leafs * path length) — with the colliding-pair count
/// maintained as a running sum.
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
      : ftree_(&ftree), cache_(&cache), map_(ftree) {
    NBCLOS_REQUIRE(cache.leaf_count() == ftree.leaf_count() &&
                       cache.link_count() == ftree.link_count(),
                   "route cache does not match the topology");
  }

  ~SwapDeltaState() {
    // Bulk-flush the local lookup count (obs) — the hot loop never
    // touches a shared counter.
    routing::RouteCache::note_lookups(lookups_);
  }
  SwapDeltaState(const SwapDeltaState&) = delete;
  SwapDeltaState& operator=(const SwapDeltaState&) = delete;

  /// Replace the whole target vector and rebuild the load map (O(leafs)).
  void reset(const std::vector<std::uint32_t>& target) {
    NBCLOS_REQUIRE(target.size() == ftree_->leaf_count(),
                   "target vector must cover every leaf");
    map_.clear();
    target_ = target;
    for (std::uint32_t s = 0; s < target_.size(); ++s) add_leaf(s);
  }

  /// Swap targets i and j, delta-updating the load map.  \pre i != j,
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
  /// the previous targets and load map exactly.
  void revert_swap(std::uint32_t i, std::uint32_t j) { apply_swap(i, j); }

  /// Colliding path pairs of the current pattern — O(1), a running sum.
  [[nodiscard]] std::uint64_t collisions() const noexcept {
    return map_.colliding_pairs();
  }

  [[nodiscard]] const std::vector<std::uint32_t>& targets() const noexcept {
    return target_;
  }

  /// Materialize the current pattern (allocates; not on the hot path).
  [[nodiscard]] Permutation pattern() const {
    return permutation_from_targets(target_);
  }

 private:
  /// Load (or unload) leaf s's current pair by replaying its cached run;
  /// paths are pattern-independent, so the run added for (s, target[s])
  /// is the run to remove later.
  void add_leaf(std::uint32_t s) {
    if (target_[s] == s) return;
    ++lookups_;
    map_.add_run(cache_->links(s, target_[s]));
  }

  void remove_leaf(std::uint32_t s) {
    if (target_[s] == s) return;
    ++lookups_;
    map_.remove_run(cache_->links(s, target_[s]));
  }

  const FoldedClos* ftree_;
  const routing::RouteCache* cache_;
  std::vector<std::uint32_t> target_;
  LinkLoadMap map_;
  std::uint64_t lookups_ = 0;  ///< local count, flushed to obs on destroy
};

}  // namespace nbclos
