/// \file route_cache.hpp
/// \brief The library's two route tables, each with its own consumer.
///
///   * RouteCache        — the verifier's table.  Every SD pair of a
///                         single-path ftree routing, materialized once
///                         per verifier call and read by every hill-
///                         climbed permutation of it (the climbs replay
///                         link runs) and by every sampled or enumerated
///                         one when the call scores at least as many
///                         permutations as there are leaves and the
///                         table fits 64 MiB (scoring_cache_pays in
///                         analysis/verifier.hpp; PermutationLoad reads
///                         its rows directly), and one per degraded
///                         fabric per failure level, without calling
///                         route() again.  A route is fixed by its top
///                         switch (Theorem 3), so the cache keeps one
///                         uint16_t top id and one flag byte per ordered
///                         pair (0.79 MB at ftree(8+64, 64), small enough
///                         for L2) and rebuilds the 2 or 4 link ids on
///                         lookup;
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
/// across worker threads.
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
#include <vector>

#include "nbclos/routing/next_hop.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::routing {

/// The directed links of one cached path, by value: at most
/// FoldedClos::kMaxPathLinks ids, contiguous.  It ranges like a span and
/// converts to std::span<const std::uint32_t> (a contiguous sized
/// range), so LinkLoadMap::add_run(cache.links(s, d)) reads it in place;
/// keep the run alive as long as any span taken from it.
class LinkRun {
 public:
  [[nodiscard]] const std::uint32_t* begin() const noexcept { return ids_; }
  [[nodiscard]] const std::uint32_t* end() const noexcept {
    return ids_ + size_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
    NBCLOS_DEBUG_CHECK(i < size_, "link run index out of range");
    return ids_[i];
  }

 private:
  friend class RouteCache;
  std::uint32_t ids_[FoldedClos::kMaxPathLinks];
  std::uint32_t size_ = 0;
};

/// Every SD pair's path of a single-path routing over ftree(n+m, r),
/// stored as the one top switch it crosses: pair (s, d) holds a uint16_t
/// top id (src-major), kDirect for a path through the shared bottom
/// switch, or kEmpty for the diagonal and unroutable pairs.
class RouteCache {
 public:
  /// Per-pair flag bits (degraded fabrics; healthy routings store 0).
  static constexpr std::uint8_t kUnroutable = 1U << 0;
  static constexpr std::uint8_t kFallback = 1U << 1;

  /// Top ids occupy [0, kTopLimit); the two codes above are reserved, so
  /// a cached fabric needs m < kTopLimit top switches.
  static constexpr std::uint32_t kTopLimit = 0xFFFE;
  /// The reserved codes: a path through the shared bottom switch, and
  /// the diagonal or an unroutable pair.
  static constexpr std::uint16_t kDirect = kTopLimit;
  static constexpr std::uint16_t kEmpty = kTopLimit + 1;

  /// Generic builder: `fn(sd, path)` fills `path` and returns flag bits
  /// for every ordered pair with sd.src != sd.dst.  When the returned
  /// flags contain kUnroutable the path is ignored and the pair gets an
  /// empty run.  \pre ftree.m() < kTopLimit.
  using BuildFn = std::function<std::uint8_t(SDPair, FtreePath&)>;
  RouteCache(const FoldedClos& ftree, const BuildFn& fn);

  /// Snapshot a healthy routing (all pairs routable, no flags): each row
  /// is filled straight from the routing's top_for.
  [[nodiscard]] static RouteCache materialize(const SinglePathRouting& routing);

  [[nodiscard]] std::uint32_t leaf_count() const noexcept { return leafs_; }
  [[nodiscard]] std::uint32_t link_count() const noexcept {
    return ftree_.link_count();
  }

  /// The link-id run of pair (s, d), exactly FoldedClos::links_into of
  /// the cached path — empty for s == d and for unroutable pairs.  One
  /// 2-byte load plus index arithmetic; no per-call validation in
  /// Release (the verification hot path runs through here).
  [[nodiscard]] LinkRun links(std::uint32_t s, std::uint32_t d) const {
    NBCLOS_DEBUG_CHECK(s < leafs_ && d < leafs_, "SD pair out of range");
    const std::uint16_t top = tops_[std::size_t{s} * leafs_ + d];
    LinkRun run;
    if (top == kEmpty) return run;
    const LeafId src{s};
    const LeafId dst{d};
    run.ids_[0] = ftree_.leaf_up_link(src).value;
    if (top == kDirect) {
      run.ids_[1] = ftree_.leaf_down_link(dst).value;
      run.size_ = 2;
      return run;
    }
    run.ids_[1] = ftree_.up_link(ftree_.switch_of(src), TopId{top}).value;
    run.ids_[2] = ftree_.down_link(TopId{top}, ftree_.switch_of(dst)).value;
    run.ids_[3] = ftree_.leaf_down_link(dst).value;
    run.size_ = 4;
    return run;
  }

  /// The packed table: pair (s, d) at s * leaf_count() + d holds its top
  /// id, kDirect or kEmpty.  PermutationLoad scores permutations straight
  /// from these rows.
  [[nodiscard]] const std::uint16_t* tops() const noexcept {
    return tops_.data();
  }

  [[nodiscard]] std::uint8_t flags(std::uint32_t s, std::uint32_t d) const {
    NBCLOS_DEBUG_CHECK(s < leafs_ && d < leafs_, "SD pair out of range");
    return flags_[std::size_t{s} * leafs_ + d];
  }
  [[nodiscard]] bool unroutable(std::uint32_t s, std::uint32_t d) const {
    return (flags(s, d) & kUnroutable) != 0;
  }
  [[nodiscard]] bool any_unroutable() const noexcept { return any_unroutable_; }

  [[nodiscard]] std::uint64_t pair_count() const noexcept {
    return std::uint64_t{leafs_} * leafs_;
  }
  /// Resident size of the per-pair arrays (reported as an obs gauge):
  /// 3 bytes a pair.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return tops_.capacity() * sizeof(std::uint16_t) + flags_.capacity();
  }

  /// Bulk-account `n` cache lookups to the obs registry.  Engines count
  /// locally and flush once per restart/probe so the hot loop never
  /// touches a shared counter.
  static void note_lookups(std::uint64_t n);

 private:
  /// Every pair kEmpty, no flags.  \pre ftree.m() < kTopLimit.
  explicit RouteCache(const FoldedClos& ftree);
  /// Account one finished build of `routed` pairs to the obs registry.
  void note_build(std::uint64_t routed) const;

  FoldedClos ftree_;  ///< the link layout runs are rebuilt from
  std::uint32_t leafs_ = 0;
  bool any_unroutable_ = false;
  std::vector<std::uint16_t> tops_;  ///< leafs^2 top ids / codes, src-major
  std::vector<std::uint8_t> flags_;  ///< leafs^2 per-pair flag bytes
};

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
