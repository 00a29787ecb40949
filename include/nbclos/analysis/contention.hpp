/// \file contention.hpp
/// \brief Link contention measurement and the Lemma 1 link audit.
///
/// Contention (paper §III): a communication pattern causes contention
/// under a routing when two of its SD pairs are routed through one
/// directed link.  Two counters measure it:
///   * PermutationLoad scores one permutation in one pass over its SD
///     pairs, counting only the up- and down-links (the only links a
///     permutation can share, by Lemma 1).  The verifier drivers score
///     every sampled or enumerated permutation with it.
///   * LinkLoadMap counts every directed link and keeps its collision
///     statistics incrementally, for hill-climb state that adds and
///     removes paths (analysis/delta.hpp) and for arbitrary path sets.
/// The audit utilities check Lemma 1's iff-condition — "every link
/// carries traffic either from one source or to one destination" — over
/// *all* SD pairs a routing can ever produce.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/routing/single_path.hpp"
#include "nbclos/topology/fat_tree.hpp"

namespace nbclos {

/// Per-link path counters for one routed pattern.
///
/// The collision statistics are maintained *incrementally*: every
/// add/remove updates a running sum-of-C(load, 2) and contended-link
/// count, so `colliding_pairs()` and `contended_links()` are O(1).  That
/// makes the map usable as persistent hill-climb state — a two-target
/// swap removes and re-adds at most four paths instead of rebuilding the
/// whole map (see analysis/delta.hpp).
class LinkLoadMap {
 public:
  explicit LinkLoadMap(const FoldedClos& ftree)
      : ftree_(&ftree), load_(ftree.link_count(), 0) {}

  void add_path(const FtreePath& path);
  void add_paths(const std::vector<FtreePath>& paths);
  /// Zero every counter (O(link_count)).
  void clear();

  /// Load / unload a precomputed flat link-id run (the RouteCache
  /// representation of a path — see routing/route_cache.hpp).  These are
  /// the delta evaluator's hot path: a plain loop over a small span of
  /// contiguous uint32 ids, no LinkId wrapping and no per-link branch
  /// beyond the counter updates themselves.
  void add_run(std::span<const std::uint32_t> run) {
    for (const auto link : run) bump_index(link);
  }
  /// \pre every link of the run currently has load >= 1.
  void remove_run(std::span<const std::uint32_t> run) {
    for (const auto link : run) drop_index(link);
  }

  [[nodiscard]] std::uint32_t load(LinkId link) const {
    NBCLOS_REQUIRE(link.value < load_.size(), "link id out of range");
    return load_[link.value];
  }
  /// Number of links carrying two or more paths.
  [[nodiscard]] std::uint32_t contended_links() const noexcept {
    return contended_links_;
  }
  /// Number of colliding path pairs, summed over links: sum C(load, 2).
  [[nodiscard]] std::uint64_t colliding_pairs() const noexcept {
    return colliding_pairs_;
  }
  [[nodiscard]] std::uint32_t max_load() const;
  [[nodiscard]] bool contention_free() const { return contended_links() == 0; }

 private:
  void bump_index(std::uint32_t link) {
    NBCLOS_DEBUG_CHECK(link < load_.size(), "link id out of range");
    auto& l = load_[link];
    colliding_pairs_ += l;  // new path collides with each resident one
    if (++l == 2) ++contended_links_;
  }
  void drop_index(std::uint32_t link) {
    NBCLOS_DEBUG_CHECK(link < load_.size(), "link id out of range");
    auto& l = load_[link];
    NBCLOS_DEBUG_CHECK(l > 0, "removing path from empty link");
    if (l-- == 2) --contended_links_;
    colliding_pairs_ -= l;
  }

  const FoldedClos* ftree_;
  std::vector<std::uint32_t> load_;
  std::uint64_t colliding_pairs_ = 0;
  std::uint32_t contended_links_ = 0;
};

/// Up/down-link loads of one routed permutation, scored in one pass.
///
/// In a permutation every leaf link carries at most one path (each leaf
/// sends and receives at most once), so by Lemma 1 only the r*m up-links
/// and r*m down-links can be shared.  PermutationLoad keeps one counter
/// per such link (up-link (v, t) at v*m + t, down-link (t, w) at
/// r*m + t*r + w: FoldedClos's link ids less leaf_count()), and each
/// load() zeroes them and walks the pattern once, with no per-pair
/// allocation.  Over the same paths, colliding_pairs() and max_load()
/// equal LinkLoadMap's (max_load() is 1 for a nonempty pattern that
/// shares no link, 0 for an empty one).
/// \pre every loaded pattern is a permutation (validate_permutation).
class PermutationLoad {
 public:
  explicit PermutationLoad(const FoldedClos& ftree);

  /// Route every pair of `pattern` through `routing` and load the paths
  /// (SinglePathRouting::route_into per pair; no path vector).
  void load(const Permutation& pattern, const SinglePathRouting& routing);
  /// Load a pattern router's paths: \pre paths[i] routes pattern[i]
  /// (checked in Debug builds).
  void load(const Permutation& pattern, const std::vector<FtreePath>& paths);

  /// Number of colliding path pairs, summed over links: sum C(load, 2).
  [[nodiscard]] std::uint64_t colliding_pairs() const noexcept {
    return colliding_pairs_;
  }
  /// Most paths on any one directed link.
  [[nodiscard]] std::uint32_t max_load() const noexcept { return max_load_; }

 private:
  /// Zero the counters and load path_of(item) for every item of the
  /// range (an SD pair to route, or a routed path).
  template <typename Item, typename PathOf>
  void load_paths(const std::vector<Item>& items, const PathOf& path_of);

  const FoldedClos* ftree_;
  std::vector<std::uint32_t> load_;
  std::uint64_t colliding_pairs_ = 0;
  std::uint32_t max_load_ = 0;
};

/// Convenience: does this pattern cause contention under these paths?
[[nodiscard]] bool has_contention(const FoldedClos& ftree,
                                  const std::vector<FtreePath>& paths);

/// One Lemma 1 violation: a link carrying traffic from >= 2 sources AND
/// to >= 2 destinations.  The counts are the *exact* numbers of distinct
/// sources / destinations whose traffic crosses the link.
struct LinkAuditViolation {
  LinkId link;
  std::uint32_t distinct_sources = 0;
  std::uint32_t distinct_destinations = 0;
};

/// Audit a single-path deterministic routing against Lemma 1 by routing
/// every one of the r(r-1)n^2 cross SD pairs (plus same-switch pairs) and
/// checking every link.  Empty result  <=>  the routing is nonblocking
/// (Lemma 1 is an iff).
[[nodiscard]] std::vector<LinkAuditViolation> lemma1_audit(
    const SinglePathRouting& routing);

/// Lemma 1 verdict for a single-path deterministic routing.
[[nodiscard]] inline bool is_nonblocking_single_path(
    const SinglePathRouting& routing) {
  return lemma1_audit(routing).empty();
}

/// Audit an arbitrary per-SD link footprint (used for oblivious
/// multipath, where Lemma 1 must hold over the union of candidate paths).
/// `footprint(sd)` returns the links packets of `sd` may traverse.
[[nodiscard]] std::vector<LinkAuditViolation> lemma1_audit_footprints(
    const FoldedClos& ftree,
    const std::function<std::vector<LinkId>(SDPair)>& footprint);

}  // namespace nbclos
