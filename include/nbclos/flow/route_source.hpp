/// \file route_source.hpp
/// \brief Former names of the flow engines' route providers, kept only
///        for code written against them.
///
/// Every engine now takes a `routing::NextHop` directly: a
/// `ChannelRouteCache` or an O(1) router such as `sim::KaryDmodkRouter`
/// is passed as is.  The two forwarders below wrap an existing NextHop
/// and add no behaviour of their own; new code should not use them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "nbclos/routing/next_hop.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos::flow {

using RouteSource = routing::NextHop;

/// Forwards every call to a shared ChannelRouteCache.
class CacheRouteSource final : public RouteSource {
 public:
  explicit CacheRouteSource(
      std::shared_ptr<const routing::ChannelRouteCache> cache)
      : cache_(std::move(cache)) {}

  [[nodiscard]] const Network& network() const override {
    return cache_->network();
  }
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override {
    return cache_->next_channel_from(vertex, src, dst);
  }
  [[nodiscard]] std::size_t bytes() const override { return cache_->bytes(); }
  [[nodiscard]] std::string name() const override { return cache_->name(); }

 private:
  std::shared_ptr<const routing::ChannelRouteCache> cache_;
};

/// Forwards every call to a shared pure router over `net`.
class PureRouteSource final : public RouteSource {
 public:
  PureRouteSource(const Network& /*net*/,
                  std::shared_ptr<const routing::NextHop> router)
      : router_(std::move(router)) {}

  [[nodiscard]] const Network& network() const override {
    return router_->network();
  }
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override {
    return router_->next_channel_from(vertex, src, dst);
  }
  [[nodiscard]] std::size_t bytes() const override { return router_->bytes(); }
  [[nodiscard]] std::string name() const override { return router_->name(); }

 private:
  std::shared_ptr<const routing::NextHop> router_;
};

}  // namespace nbclos::flow
