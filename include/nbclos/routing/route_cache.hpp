/// \file route_cache.hpp
/// \brief Precomputed flat-array (CSR) route storage shared by every
///        engine that replays the same deterministic routing.
///
/// Single-path deterministic routings are pattern-independent, so every
/// SD pair's path can be materialized exactly once and then replayed by
/// the verification engines (thousands of hill-climb restarts), the
/// sweep drivers (dozens of load probes), and the fault machinery (one
/// degraded fabric per failure level) without ever calling route()
/// again.  Two caches cover the library's two path vocabularies:
///
///   * RouteCache        — ftree LinkId runs for FoldedClos routings;
///   * ChannelRouteCache — Network channel runs behind the `NextHop`
///                         interface every simulation engine replays.
///
/// Both use the same memory layout: one contiguous `uint32_t` link array
/// holding every pair's run back to back, plus a CSR offsets table
/// indexed by src-major pair id — two loads to reach any path, zero
/// pointer chasing, and the whole structure is immutable after
/// construction, so it is shared read-only across worker threads.
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

namespace nbclos {
class SinglePathRouting;
}

namespace nbclos::routing {

/// All SD-pair link runs of a single-path routing over ftree(n+m, r),
/// flattened: pair (s, d) occupies links()[offsets[s*L+d] ..
/// offsets[s*L+d+1]) in one contiguous array (2 links for direct pairs,
/// 4 for cross pairs, 0 for the diagonal and unroutable pairs).
class RouteCache {
 public:
  /// Per-pair flag bits (degraded fabrics; healthy routings store 0).
  static constexpr std::uint8_t kUnroutable = 1U << 0;
  static constexpr std::uint8_t kFallback = 1U << 1;

  /// Generic builder: `fn(sd, path)` fills `path` and returns flag bits
  /// for every ordered pair with sd.src != sd.dst.  When the returned
  /// flags contain kUnroutable the path is ignored and the pair gets an
  /// empty run.
  using BuildFn = std::function<std::uint8_t(SDPair, FtreePath&)>;
  RouteCache(const FoldedClos& ftree, const BuildFn& fn);

  /// Snapshot a healthy routing (all pairs routable, no flags).
  [[nodiscard]] static RouteCache materialize(const SinglePathRouting& routing);

  [[nodiscard]] std::uint32_t leaf_count() const noexcept { return leafs_; }
  [[nodiscard]] std::uint32_t link_count() const noexcept { return links_in_topology_; }

  /// The link-id run of pair (s, d) — empty for s == d and for
  /// unroutable pairs.  Two indexed loads; no per-call validation in
  /// Release (the verification hot path runs through here).
  [[nodiscard]] std::span<const std::uint32_t> links(std::uint32_t s,
                                                     std::uint32_t d) const {
    NBCLOS_DEBUG_CHECK(s < leafs_ && d < leafs_, "SD pair out of range");
    const std::size_t pair = std::size_t{s} * leafs_ + d;
    const std::uint32_t begin = offsets_[pair];
    return {links_.data() + begin, offsets_[pair + 1] - begin};
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
  /// Resident size of the flattened arrays (reported as an obs gauge).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return links_.capacity() * sizeof(std::uint32_t) +
           offsets_.capacity() * sizeof(std::uint32_t) + flags_.capacity();
  }

  /// Bulk-account `n` cache lookups to the obs registry.  Engines count
  /// locally and flush once per restart/probe so the hot loop never
  /// touches a shared counter.
  static void note_lookups(std::uint64_t n);

 private:
  std::uint32_t leafs_ = 0;
  std::uint32_t links_in_topology_ = 0;
  bool any_unroutable_ = false;
  std::vector<std::uint32_t> offsets_;  ///< leafs^2 + 1 entries, src-major
  std::vector<std::uint32_t> links_;    ///< all runs, back to back
  std::vector<std::uint8_t> flags_;     ///< leafs^2 per-pair flag bytes
};

/// All terminal-pair channel runs of a Network routing, flattened with
/// the same CSR layout — the table-backed `NextHop` every engine can
/// replay (the O(1) routers in sim/shard_router.hpp are the table-free
/// ones).
class ChannelRouteCache final : public NextHop {
 public:
  /// Route function over terminal *indices* (positions in
  /// net.terminals()) — the same signature as analysis'
  /// NetworkRouteFn, restated here so routing/ stays below analysis/ in
  /// the library dependency order.
  using RouteFn = std::function<std::vector<std::uint32_t>(SDPair)>;

  /// Routes every ordered terminal pair through `route` (validated for
  /// chaining) and flattens the channel runs.
  ChannelRouteCache(const Network& net, const RouteFn& route);

  /// Snapshot a healthy ftree routing over `net` = build_network(ftree):
  /// channel ids are LinkId values, so each pair's run is its link run.
  /// Shared because every engine replays it read-only.
  [[nodiscard]] static std::shared_ptr<const ChannelRouteCache> materialize(
      const Network& net, const SinglePathRouting& routing);

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
