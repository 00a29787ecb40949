/// \file route_cache.hpp
/// \brief The library's two route tables, each with its own consumer.
///
///   * RouteCache        — the verifier's table.  Every SD pair of a
///                         single-path ftree routing, built once per
///                         verifier call and read by every hill-climbed
///                         permutation of it, by every sampled or
///                         enumerated one when the call scores at least
///                         as many permutations as there are leaves and
///                         the table fits 64 MiB (scoring_cache_pays in
///                         analysis/verifier.hpp), and one per degraded
///                         fabric per failure level (fault/sweep.hpp).
///                         A route is fixed by its top switch (Theorem
///                         3), so the cache keeps one uint16_t code per
///                         ordered pair and nothing else (0.52 MB at
///                         ftree(8+64, 64), small enough for L2);
///   * ChannelRouteCache — the engines' table, for routings that ARE
///                         tables: per-pattern adaptive schedules and
///                         forwarding tables on any Network.  It packs
///                         every pair's channel run into one `uint32_t`
///                         array behind a CSR offsets table, O(T^2)
///                         bytes.  A single-path ftree routing does not
///                         need it: `TopChoiceNextHop` (next_hop.hpp)
///                         answers the same next hops by arithmetic.
///
/// Both are immutable after construction, so they are shared read-only
/// across worker threads.  While a table lives its bytes count on the
/// route_cache.bytes gauge, whose max() is the peak resident size.
///
/// Invalidation: a cache snapshots the routing it was built from.  It
/// must be rebuilt whenever the underlying route function would answer
/// differently — for degraded fabrics that means one cache per failure
/// set (see DESIGN.md "memory layout & route cache" for the rules).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nbclos/routing/next_hop.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::routing {

/// Every SD pair's path of a single-path routing over ftree(n+m, r),
/// stored as the one top switch it crosses: pair (s, d) holds a uint16_t
/// top id (src-major), kDirect for a path through the shared bottom
/// switch, or kEmpty for the diagonal and unroutable pairs.
/// PermutationLoad (analysis/contention.hpp) turns a top id into the only
/// two links of the path a permutation can share: the up-link into the
/// top and the down-link out of it.
class RouteCache {
 public:
  /// Top ids occupy [0, kTopLimit); the two codes above are reserved, so
  /// a cached fabric needs m < kTopLimit top switches.
  static constexpr std::uint32_t kTopLimit = 0xFFFE;
  /// The reserved codes: a path through the shared bottom switch, and
  /// the diagonal or an unroutable pair.
  static constexpr std::uint16_t kDirect = kTopLimit;
  static constexpr std::uint16_t kEmpty = kTopLimit + 1;

  /// The one builder: `code_of(sd)` returns the code of every ordered
  /// pair with sd.src != sd.dst — a top id below m, kDirect, or kEmpty
  /// for a pair with no live path.  \pre ftree.m() < kTopLimit.
  template <typename CodeOf>
  [[nodiscard]] static RouteCache build(const FoldedClos& ftree,
                                        const CodeOf& code_of);

  /// Snapshot a healthy routing (all pairs routable): the build above
  /// over the routing's top_for.
  [[nodiscard]] static RouteCache materialize(const SinglePathRouting& routing);

  /// A moved-from table holds no bytes.
  RouteCache(RouteCache&&) noexcept = default;
  RouteCache& operator=(RouteCache&&) = delete;
  /// Takes the table's bytes off the route_cache.bytes gauge.
  ~RouteCache();

  [[nodiscard]] std::uint32_t leaf_count() const noexcept { return leafs_; }

  /// The packed table: pair (s, d) at s * leaf_count() + d holds its top
  /// id, kDirect or kEmpty.  PermutationLoad scores permutations straight
  /// from these rows.
  [[nodiscard]] const std::uint16_t* tops() const noexcept {
    return tops_.data();
  }
  /// The code of pair (s, d).
  [[nodiscard]] std::uint16_t top(std::uint32_t s, std::uint32_t d) const {
    NBCLOS_DEBUG_CHECK(s < leafs_ && d < leafs_, "SD pair out of range");
    return tops_[std::size_t{s} * leafs_ + d];
  }

  /// Whether some off-diagonal pair is kEmpty (a degraded fabric).
  [[nodiscard]] bool any_unroutable() const noexcept { return any_unroutable_; }

  [[nodiscard]] std::uint64_t pair_count() const noexcept {
    return std::uint64_t{leafs_} * leafs_;
  }
  /// Resident size of the table (reported as the route_cache.bytes
  /// gauge while the table lives): 2 bytes a pair.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return tops_.capacity() * sizeof(std::uint16_t);
  }

  /// Bulk-account `n` cache lookups to the obs registry.  Engines count
  /// locally and flush once per restart/probe so the hot loop never
  /// touches a shared counter.
  static void note_lookups(std::uint64_t n);

 private:
  /// No table yet (build fills it).  \pre ftree.m() < kTopLimit.
  explicit RouteCache(const FoldedClos& ftree);
  /// Account one finished build of `routed` pairs to the obs registry.
  void note_build(std::uint64_t routed) const;

  std::uint32_t leafs_ = 0;
  bool any_unroutable_ = false;
  std::vector<std::uint16_t> tops_;  ///< leafs^2 top ids / codes, src-major
};

template <typename CodeOf>
RouteCache RouteCache::build(const FoldedClos& ftree, const CodeOf& code_of) {
  RouteCache cache(ftree);
  const std::uint32_t leafs = cache.leafs_;
  // Filled aside and moved in at the end: a throwing code_of leaves the
  // cache with no table, so its destructor takes nothing off the gauge.
  std::vector<std::uint16_t> tops(cache.pair_count(), kEmpty);
  std::uint64_t routed = 0;
  std::uint16_t* row = tops.data();
  for (std::uint32_t s = 0; s < leafs; ++s, row += leafs) {
    for (std::uint32_t d = 0; d < leafs; ++d) {
      if (s == d) continue;
      const std::uint16_t code = code_of(SDPair{LeafId{s}, LeafId{d}});
      NBCLOS_ASSERT(code < ftree.m() || code == kDirect || code == kEmpty);
      row[d] = code;
      if (code == kEmpty) {
        cache.any_unroutable_ = true;
      } else {
        ++routed;
      }
    }
  }
  cache.tops_ = std::move(tops);
  cache.note_build(routed);
  return cache;
}

/// All terminal-pair channel runs of a Network routing, flattened into
/// one channel array behind a CSR offsets table — the table-backed
/// `NextHop` every engine can replay (next_hop.hpp lists the table-free
/// ones).
class ChannelRouteCache final : public NextHop {
 public:
  /// Route function over terminal *indices* (positions in
  /// net.terminals()): each call returns the pair's whole channel path.
  using RouteFn = std::function<std::vector<std::uint32_t>(SDPair)>;

  /// Routes every ordered terminal pair through `route` (validated for
  /// chaining) and flattens the channel runs.
  ChannelRouteCache(const Network& net, const RouteFn& route);
  /// Takes the table's bytes off the route_cache.bytes gauge.
  ~ChannelRouteCache() override;
  ChannelRouteCache(const ChannelRouteCache&) = delete;
  ChannelRouteCache& operator=(const ChannelRouteCache&) = delete;

  /// Snapshot a healthy ftree routing over `net` = build_network(ftree):
  /// channel ids are LinkId values, so each pair's run is its link run.
  /// Shared because every engine replays it read-only.
  [[nodiscard]] static std::shared_ptr<const ChannelRouteCache> materialize(
      const Network& net, const SinglePathRouting& routing);

  /// Snapshot a per-pattern schedule (e.g. AdaptiveSchedule::to_paths)
  /// over `net` = build_network(base.ftree()): each cross pair in `paths`
  /// crosses the top its path names, and every other pair keeps `base`'s
  /// path.  Direct paths are skipped — a same-switch pair has one path,
  /// which `base` already gives.  \pre no pair appears twice in `paths`.
  [[nodiscard]] static std::shared_ptr<const ChannelRouteCache> from_paths(
      const Network& net, const SinglePathRouting& base,
      std::span<const FtreePath> paths);

  [[nodiscard]] const Network& network() const noexcept override {
    return *net_;
  }
  [[nodiscard]] std::uint32_t terminal_count() const noexcept {
    return terminals_;
  }

  /// Channel run of terminal-index pair (s, d); empty for s == d.
  [[nodiscard]] std::span<const std::uint32_t> channels(std::uint32_t s,
                                                        std::uint32_t d) const {
    NBCLOS_DEBUG_CHECK(s < terminals_ && d < terminals_,
                       "terminal pair out of range");
    const std::size_t pair = std::size_t{s} * terminals_ + d;
    const std::uint32_t begin = offsets_[pair];
    return {channels_.data() + begin, offsets_[pair + 1] - begin};
  }

  /// A walk of the pair's contiguous run (paths have <= 2·levels hops).
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override;

  /// Total (pair, hop) entries — what the old hash map counted.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] std::size_t bytes() const noexcept override {
    return (channels_.capacity() + offsets_.capacity() +
            terminal_index_.capacity()) *
           sizeof(std::uint32_t);
  }
  [[nodiscard]] std::string name() const override { return "route-cache"; }

 private:
  static constexpr std::uint32_t kNotATerminal = UINT32_MAX;

  const Network* net_;
  std::uint32_t terminals_ = 0;
  std::vector<std::uint32_t> terminal_index_;  ///< vertex id -> terminal index
  std::vector<std::uint32_t> offsets_;         ///< terminals^2 + 1, src-major
  std::vector<std::uint32_t> channels_;        ///< all runs, back to back
};

}  // namespace nbclos::routing
