/// \file route_source.hpp
/// \brief Route providers for the flow-level engines: the per-pair
///        `ChannelRouteCache` table, or a pure O(1) `sim::ShardRouter`.
///
/// The flow engines only ever ask one question — "which channel does
/// the (src, dst) flow take out of `vertex`?" — but until the
/// million-terminal scale-out they could only ask it of a
/// `ChannelRouteCache`, whose O(T^2) pair table cannot exist at 10^6
/// terminals.  `RouteSource` abstracts the question; `CacheRouteSource`
/// wraps the existing table (every historical call site keeps working
/// through the engines' cache-taking constructors), and
/// `PureRouteSource` wraps any deterministic `sim::ShardRouter` —
/// e.g. `KaryDmodkRouter`, whose digit arithmetic answers in O(1) with
/// zero per-pair state.  Both must be deterministic and safe to call
/// concurrently from shard workers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "nbclos/routing/route_cache.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::flow {

/// Pure next-hop interface for the flow engines.  `src` and `dst` are
/// vertex ids of terminals, as carried by sim::Packet.
class RouteSource {
 public:
  virtual ~RouteSource() = default;
  [[nodiscard]] virtual const Network& network() const = 0;
  /// Outgoing channel of the (src, dst) flow at `vertex`.
  [[nodiscard]] virtual std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src, std::uint32_t dst) const = 0;
  /// Resident bytes of routing state (0 for pure arithmetic routers).
  [[nodiscard]] virtual std::size_t bytes() const = 0;
  [[nodiscard]] virtual std::string label() const = 0;
};

/// The historical path: every pair's channel run materialized in a
/// `ChannelRouteCache`.
class CacheRouteSource final : public RouteSource {
 public:
  explicit CacheRouteSource(
      std::shared_ptr<const routing::ChannelRouteCache> cache)
      : cache_(std::move(cache)) {
    NBCLOS_REQUIRE(cache_ != nullptr, "route cache must not be null");
  }

  [[nodiscard]] const Network& network() const override {
    return cache_->network();
  }
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override {
    return cache_->next_channel_from(vertex, src, dst);
  }
  [[nodiscard]] std::size_t bytes() const override { return cache_->bytes(); }
  [[nodiscard]] std::string label() const override { return "route-cache"; }

  [[nodiscard]] const std::shared_ptr<const routing::ChannelRouteCache>&
  cache() const noexcept {
    return cache_;
  }

 private:
  std::shared_ptr<const routing::ChannelRouteCache> cache_;
};

/// O(1)-per-hop routing from a pure `sim::ShardRouter` — no per-pair
/// table, so fabrics of any size route in constant memory.  This is the
/// only way a 10^6-terminal flow-level run fits.
class PureRouteSource final : public RouteSource {
 public:
  PureRouteSource(const Network& net,
                  std::shared_ptr<const sim::ShardRouter> router)
      : net_(&net), router_(std::move(router)) {
    NBCLOS_REQUIRE(router_ != nullptr, "shard router must not be null");
  }

  [[nodiscard]] const Network& network() const override { return *net_; }
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override {
    sim::Packet probe;
    probe.src_terminal = src;
    probe.dst_terminal = dst;
    return router_->next_channel(vertex, probe);
  }
  [[nodiscard]] std::size_t bytes() const override { return 0; }
  [[nodiscard]] std::string label() const override { return router_->name(); }

 private:
  const Network* net_;
  std::shared_ptr<const sim::ShardRouter> router_;
};

}  // namespace nbclos::flow
