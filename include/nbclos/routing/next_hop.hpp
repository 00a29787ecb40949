/// \file next_hop.hpp
/// \brief The one pure next-hop interface every engine routes through,
///        its one path walker, and its one adapter for single-path ftree
///        routings.
///
/// Under a deterministic single-path routing each SD pair owns one fixed
/// path, so every engine asks the same question: "which channel does the
/// (src, dst) flow take out of `vertex`?"  `NextHop` is that question,
/// and it is the only description of a route on every fabric.  The flow
/// engines and `ShardedSim` ask it directly, `PacketSim` through
/// `sim::NextHopOracle`, and the audits through `walk_path` (below).
/// Five classes answer it:
///
///   * `TopChoiceNextHop` (below) — any `SinglePathRouting` on
///     `build_network(ftree)`: the paper's routing is one top switch per
///     SD pair (§IV-A), so the next hop is index arithmetic around
///     `top_for`, with no table;
///   * `sim::KaryDmodkRouter` (sim/shard_router.hpp) — digit arithmetic
///     on k-ary n-trees;
///   * `MultiLevelFabric` (core/multilevel.hpp) — the recursive
///     Theorem 3 rule on the §IV multi-level fabric;
///   * `InfinibandFabric` (infiniband.hpp) — LFT lookups on the
///     multiple-LID programming of an ftree;
///   * `ChannelRouteCache` (route_cache.hpp) — a materialized table, for
///     routings that are tables: per-pattern schedules and forwarding
///     tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nbclos/routing/single_path.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::routing {

/// Pure next-hop provider: const, deterministic, and safe to call from
/// any number of threads concurrently.
class NextHop {
 public:
  virtual ~NextHop() = default;
  /// The network whose channel ids next_channel_from() returns.
  [[nodiscard]] virtual const Network& network() const = 0;
  /// Outgoing channel of the (src, dst) flow at `vertex` (a terminal
  /// source or a switch on the pair's path).  `src` and `dst` are vertex
  /// ids of terminals, as carried by sim::Packet.
  [[nodiscard]] virtual std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src, std::uint32_t dst) const = 0;
  /// Resident bytes of routing state (0 for pure arithmetic routers).
  [[nodiscard]] virtual std::size_t bytes() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// The channels the (src, dst) flow crosses, in path order, found by
/// following `routes.next_channel_from` from terminal `src` until it
/// reaches terminal `dst`; `out` is overwritten (empty for src == dst).
/// Throws precondition_error when an endpoint is not a terminal, a hop
/// names a channel out of range or one that does not leave the current
/// vertex, or the walk takes more hops than the network has vertices.
inline void walk_path(const NextHop& routes, std::uint32_t src,
                      std::uint32_t dst, std::vector<std::uint32_t>& out) {
  const Network& net = routes.network();
  NBCLOS_REQUIRE(net.vertex(src).kind == VertexKind::kTerminal &&
                     net.vertex(dst).kind == VertexKind::kTerminal,
                 "walk endpoints must be terminals");
  out.clear();
  for (std::uint32_t at = src; at != dst;) {
    NBCLOS_REQUIRE(out.size() < net.vertex_count(),
                   "route does not reach its destination");
    const std::uint32_t c = routes.next_channel_from(at, src, dst);
    NBCLOS_REQUIRE(c < net.channel_count(), "next hop channel out of range");
    NBCLOS_REQUIRE(net.channel_src(c) == at,
                   "next hop channel does not leave the current vertex");
    out.push_back(c);
    at = net.channel_dst(c);
  }
}

/// The one hop rule of `build_network(ftree)`: a terminal takes its leaf
/// uplink, a top switch descends to `dst`'s bottom switch, and a bottom
/// switch delivers locally when it holds `dst`.  Those hops are forced;
/// only a cross-switch hop out of bottom switch `here` is a choice, and
/// it is `climb(here)`'s channel.
template <class Climb>
[[nodiscard]] inline std::uint32_t ftree_next_channel(
    const FoldedClos& ft, const FtreeNetworkMap& map, std::uint32_t vertex,
    LeafId dst, Climb&& climb) {
  if (map.is_terminal(vertex)) return ft.leaf_up_link(LeafId{vertex}).value;
  if (map.is_top(vertex)) {
    return ft.down_link(map.top_of(vertex), ft.switch_of(dst)).value;
  }
  const BottomId here = map.bottom_of(vertex);
  if (ft.switch_of(dst) == here) return ft.leaf_down_link(dst).value;
  return climb(here);
}

/// A single-path ftree routing as a next hop, in O(1) per hop with no
/// table: `ftree_next_channel` climbing to `routing.top_for(sd)`.
/// Shares ownership of the routing; `net` and the routing's ftree must
/// outlive the adapter.
class TopChoiceNextHop final : public NextHop {
 public:
  /// \param net must have been produced by build_network(routing.ftree())
  ///        (channel id == LinkId value); the constructor checks the
  ///        vertex/channel census so a mismatch fails up front.
  TopChoiceNextHop(std::shared_ptr<const SinglePathRouting> routing,
                   const Network& net)
      : routing_(std::move(routing)), net_(&net),
        map_{routing_->ftree().params()} {
    const FoldedClos& ft = routing_->ftree();
    NBCLOS_REQUIRE(net.finalized(), "network must be finalized");
    NBCLOS_REQUIRE(
        net.vertex_count() == std::uint64_t{ft.leaf_count()} + ft.r() + ft.m(),
        "network is not build_network(ftree): vertex count mismatch");
    NBCLOS_REQUIRE(net.channel_count() == ft.link_count(),
                   "network is not build_network(ftree): channel count "
                   "mismatch");
  }

  [[nodiscard]] const Network& network() const override { return *net_; }
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override {
    const FoldedClos& ft = routing_->ftree();
    const LeafId leaf{dst};
    return ftree_next_channel(ft, map_, vertex, leaf, [&](BottomId here) {
      return ft.up_link(here, routing_->top_for({LeafId{src}, leaf})).value;
    });
  }
  [[nodiscard]] std::size_t bytes() const override { return 0; }
  [[nodiscard]] std::string name() const override { return routing_->name(); }

 private:
  std::shared_ptr<const SinglePathRouting> routing_;
  const Network* net_;
  FtreeNetworkMap map_;
};

}  // namespace nbclos::routing
