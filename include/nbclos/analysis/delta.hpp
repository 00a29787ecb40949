/// \file delta.hpp
/// \brief Delta-evaluated hill-climb state for the adversarial verifier.
///
/// The adversarial searches mutate a full target vector (leaf s sends to
/// target[s]) by swapping two entries.  For a *single-path deterministic*
/// routing each SD pair's path is fixed independently of the rest of the
/// pattern, so a swap of targets i and j changes at most four SD pairs:
/// (i, old ti), (j, old tj) disappear and (i, tj), (j, ti) appear (fixed
/// points drop out).  SwapDeltaState keeps a persistent LinkLoadMap and
/// applies exactly those path removals/additions, making one hill-climb
/// step O(path length) instead of O(leafs * path length) — with the
/// colliding-pair count maintained as a running sum.
///
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
#include "nbclos/routing/single_path.hpp"
#include "nbclos/topology/fat_tree.hpp"

namespace nbclos {

class SwapDeltaState {
 public:
  /// `routing` must outlive the state and route over `ftree`.  Every
  /// path is computed on demand through route_into.
  SwapDeltaState(const FoldedClos& ftree, const SinglePathRouting& routing)
      : ftree_(&ftree), routing_(&routing), map_(ftree) {}

  /// Cache-backed mode: replay precomputed flat link runs instead of
  /// calling route_into — the per-swap cost drops to four cache lookups
  /// plus counter updates.  `cache` must outlive the state and must have
  /// been materialized from a routing over `ftree`; searches share one
  /// immutable cache across restarts (and across threads).
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
    if (cache_ == nullptr) path_.resize(target_.size());
    for (std::uint32_t s = 0; s < target_.size(); ++s) add_leaf(s);
  }

  /// Swap targets i and j, delta-updating the load map.  Applying the
  /// same swap again restores the previous state exactly, so callers
  /// revert a rejected move by re-swapping.  \pre i != j, both in range
  /// (checked in Debug builds only — this runs once per hill-climb step).
  void apply_swap(std::uint32_t i, std::uint32_t j) {
    NBCLOS_DEBUG_CHECK(i != j && i < target_.size() && j < target_.size(),
                       "invalid swap indices");
    remove_leaf(i);
    remove_leaf(j);
    std::swap(target_[i], target_[j]);
    add_leaf(i);
    add_leaf(j);
  }

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
  /// Route leaf s's current pair and load its links.  In route mode the
  /// path is stashed per leaf (the path added for (s, target[s]) is the
  /// path to remove later — sound because paths are pattern-independent);
  /// in cache mode both add and remove just replay the immutable run.
  void add_leaf(std::uint32_t s) {
    if (target_[s] == s) return;
    if (cache_ != nullptr) {
      ++lookups_;
      map_.add_run(cache_->links(s, target_[s]));
      return;
    }
    routing_->route_into({LeafId{s}, LeafId{target_[s]}}, path_[s]);
    map_.add_path(path_[s]);
  }

  void remove_leaf(std::uint32_t s) {
    if (target_[s] == s) return;
    if (cache_ != nullptr) {
      ++lookups_;
      map_.remove_run(cache_->links(s, target_[s]));
      return;
    }
    map_.remove_path(path_[s]);  // cached by the matching add_leaf
  }

  const FoldedClos* ftree_;
  const SinglePathRouting* routing_ = nullptr;  ///< route mode
  const routing::RouteCache* cache_ = nullptr;  ///< cache mode
  std::vector<std::uint32_t> target_;
  std::vector<FtreePath> path_;  ///< per-leaf current path (route mode only)
  LinkLoadMap map_;
  std::uint64_t lookups_ = 0;  ///< local count, flushed to obs on destroy
};

}  // namespace nbclos
