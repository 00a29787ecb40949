/// \file contention.hpp
/// \brief Link contention measurement and the Lemma 1 link audit.
///
/// Contention (paper §III): a communication pattern causes contention
/// under a routing when two of its SD pairs are routed through one
/// directed link.  Two counters measure it:
///   * PermutationLoad is the one scorer of fat-tree permutations.  It
///     counts only the up- and down-links (the only links a permutation
///     can share, by Lemma 1).  load() scores a whole permutation in one
///     pass over its SD pairs: a single-path routing from the codes of
///     a RouteCache (routing/route_cache.hpp) or from its top_for, any
///     other router from its path vector, all through one body.
///     add()/remove() of one cached pair keep the count as a running
///     sum, for hill-climb state that swaps targets (analysis/delta.hpp).
///     The verifier drivers and the fault sweep score with it.
///   * LinkLoadMap counts every directed link of an ftree, or every
///     channel of any Network, for arbitrary path sets: the tests'
///     reference and has_contention().
/// The audit utilities check Lemma 1's iff-condition — "every link
/// carries traffic either from one source or to one destination" — over
/// *all* SD pairs a routing can ever produce: on an ftree from its link
/// runs, and on any Network by walking the routing's `routing::NextHop`.
/// Both feed one source/destination tracker.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/single_path.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos {

/// Per-link path counters for one routed pattern, over the directed
/// links of an ftree (LinkId values) or the channels of a Network.  Each
/// add keeps a running sum-of-C(load, 2) and contended-link count, so
/// `colliding_pairs()` and `contended_links()` are O(1).
class LinkLoadMap {
 public:
  explicit LinkLoadMap(const FoldedClos& ftree)
      : ftree_(&ftree), load_(ftree.link_count(), 0) {}
  /// Channel counters: add paths with add_channels.
  explicit LinkLoadMap(const Network& net) : load_(net.channel_count(), 0) {}

  /// \pre the map counts an ftree's links.
  void add_path(const FtreePath& path);
  void add_paths(const std::vector<FtreePath>& paths);
  /// Add one path given by its link (channel) ids.
  void add_channels(std::span<const std::uint32_t> channels);
  /// Zero every counter (O(link_count)).
  void clear();

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
    NBCLOS_REQUIRE(link < load_.size(), "link id out of range");
    auto& l = load_[link];
    colliding_pairs_ += l;  // new path collides with each resident one
    if (++l == 2) ++contended_links_;
  }

  const FoldedClos* ftree_ = nullptr;  ///< null for a Network's channels
  std::vector<std::uint32_t> load_;
  std::uint64_t colliding_pairs_ = 0;
  std::uint32_t contended_links_ = 0;
};

/// Up/down-link loads of one routed permutation.
///
/// In a permutation every leaf link carries at most one path (each leaf
/// sends and receives at most once), so by Lemma 1 only the r*m up-links
/// and r*m down-links can be shared.  PermutationLoad keeps one counter
/// per such link (up-link (v, t) at v*m + t, down-link (t, w) at
/// r*m + t*r + w: FoldedClos's link ids less leaf_count()).  load()
/// zeroes them and walks a pattern once, with no per-pair allocation;
/// add()/remove() change one cached pair.  Over the same paths,
/// colliding_pairs() and max_load() equal LinkLoadMap's (max_load() is 1
/// for a nonempty pattern that shares no link, 0 for an empty one).
/// \pre every loaded pattern is a permutation (validate_permutation).
class PermutationLoad {
 public:
  explicit PermutationLoad(const FoldedClos& ftree);

  /// Load a single-path routing's paths for the pattern in which leaf s
  /// sends to target[s] (nothing when target[s] == s), read from a
  /// RouteCache of that routing: per pair one top code from row s and
  /// the two bottom switches, with no routing call and no path.
  /// \pre target.size() == leaf_count, its non-fixed entries are
  /// distinct, `cache` is over this ftree, and every pair of the pattern
  /// is routable in it (not kEmpty).
  void load(std::span<const std::uint32_t> target,
            const routing::RouteCache& cache);
  /// The same load with no table: one routing.top_for per cross pair
  /// (same-switch pairs are told apart by their bottom switches), for a
  /// caller that scores too few permutations to pay for a RouteCache.
  /// \pre as above, and `routing` is over this ftree.
  void load(std::span<const std::uint32_t> target,
            const SinglePathRouting& routing);
  /// Load a pattern router's paths: \pre paths[i] routes pattern[i]
  /// (checked in Debug builds).
  void load(const Permutation& pattern, const std::vector<FtreePath>& paths);

  /// Add or remove pair (s, d)'s path from `cache` (the cache a load()
  /// or add() of the pair read): two counter updates, and
  /// colliding_pairs() stays a running sum.  max_load() keeps the value
  /// of the last load().  \pre remove() only a pair the counters hold.
  void add(const routing::RouteCache& cache, std::uint32_t s,
           std::uint32_t d) {
    const std::uint32_t m = ftree_->m();
    const std::uint32_t top = cache.top(s, d);
    if (top >= m) return;  // leaf links only: never shared
    colliding_pairs_ += load_[up_index(bottom_[s], top, m)]++;
    colliding_pairs_ += load_[down_index(top, bottom_[d], m, ftree_->r())]++;
  }
  void remove(const routing::RouteCache& cache, std::uint32_t s,
              std::uint32_t d) {
    const std::uint32_t m = ftree_->m();
    const std::uint32_t top = cache.top(s, d);
    if (top >= m) return;
    std::uint32_t& up = load_[up_index(bottom_[s], top, m)];
    std::uint32_t& down = load_[down_index(top, bottom_[d], m, ftree_->r())];
    NBCLOS_DEBUG_CHECK(up > 0 && down > 0, "removing a path from an empty link");
    colliding_pairs_ -= --up;
    colliding_pairs_ -= --down;
  }

  /// Number of colliding path pairs, summed over links: sum C(load, 2).
  [[nodiscard]] std::uint64_t colliding_pairs() const noexcept {
    return colliding_pairs_;
  }
  /// Most paths on any one directed link.
  [[nodiscard]] std::uint32_t max_load() const noexcept { return max_load_; }

 private:
  /// The counters of the up-link from bottom switch `bottom` into `top`
  /// and of the down-link from `top` to `bottom`: the one place the
  /// layout is written.
  [[nodiscard]] static std::size_t up_index(std::uint32_t bottom,
                                            std::uint32_t top,
                                            std::uint32_t m) {
    return std::size_t{bottom} * m + top;
  }
  [[nodiscard]] static std::size_t down_index(std::uint32_t top,
                                              std::uint32_t bottom,
                                              std::uint32_t m,
                                              std::uint32_t r) {
    return std::size_t{r} * m + std::size_t{top} * r + bottom;
  }

  /// Zero the counters and load `count` pairs: pair_of(i, bottom) gives
  /// pair i's source and destination leaves and the top switch it
  /// crosses, or a top >= m for a pair that loads only its leaf links
  /// (nothing at all when source == destination).  `bottom` is the
  /// per-leaf switch table.  The one body of all three loads.
  template <typename PairOf>
  void load_pairs(std::size_t count, const PairOf& pair_of);

  const FoldedClos* ftree_;
  std::vector<std::uint32_t> bottom_;  ///< switch_of, per leaf
  std::vector<std::uint32_t> load_;
  std::uint64_t colliding_pairs_ = 0;
  std::uint32_t max_load_ = 0;
};

/// Convenience: does this pattern cause contention under these paths?
[[nodiscard]] bool has_contention(const FoldedClos& ftree,
                                  const std::vector<FtreePath>& paths);
/// The same over channel paths of any Network.
[[nodiscard]] bool has_contention(const Network& net,
                                  const std::vector<ChannelPath>& paths);

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

/// Lemma 1 on any Network.  Its proof never uses fat-tree structure: with
/// single-path deterministic routing, a network is nonblocking iff every
/// channel carries traffic from one source or to one destination.  Walks
/// every ordered pair of distinct terminals (routing::walk_path) and
/// checks every channel; a violation's `link` holds the channel id and
/// its counts are of distinct terminal vertices.  On build_network(ftree)
/// (channel id == LinkId) it equals the ftree overload above.
[[nodiscard]] std::vector<LinkAuditViolation> lemma1_audit(
    const routing::NextHop& routes);

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
