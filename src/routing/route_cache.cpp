#include "nbclos/routing/route_cache.hpp"

#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/single_path.hpp"

namespace nbclos::routing {

RouteCache::RouteCache(const FoldedClos& ftree, const BuildFn& fn)
    : ftree_(ftree), leafs_(ftree.leaf_count()) {
  NBCLOS_REQUIRE(ftree.m() < kTopLimit,
                 "too many top switches for 16-bit route-cache top ids");
  const std::uint64_t pairs = pair_count();
  tops_.assign(pairs, kEmpty);
  flags_.assign(pairs, 0);

  std::uint64_t routed = 0;
  FtreePath path;
  for (std::uint32_t s = 0; s < leafs_; ++s) {
    for (std::uint32_t d = 0; d < leafs_; ++d) {
      if (s == d) continue;
      const SDPair sd{LeafId{s}, LeafId{d}};
      const std::size_t pair = std::size_t{s} * leafs_ + d;
      const std::uint8_t bits = fn(sd, path);
      flags_[pair] = bits;
      if ((bits & kUnroutable) != 0) {
        any_unroutable_ = true;
        continue;
      }
      NBCLOS_ASSERT(path.sd == sd);
      NBCLOS_ASSERT(path.direct || path.top.value < ftree.m());
      tops_[pair] =
          path.direct ? kDirect : static_cast<std::uint16_t>(path.top.value);
      ++routed;
    }
  }

  auto& registry = obs::metrics();
  registry.counter("route_cache.builds").add(1);
  registry.counter("route_cache.routes_materialized").add(routed);
  registry.gauge("route_cache.bytes").add(static_cast<std::int64_t>(bytes()));
}

RouteCache RouteCache::materialize(const SinglePathRouting& routing) {
  return RouteCache(routing.ftree(), [&](SDPair sd, FtreePath& path) {
    routing.route_into(sd, path);
    return std::uint8_t{0};
  });
}

void RouteCache::note_lookups(std::uint64_t n) {
  if (n > 0) obs::metrics().counter("route_cache.lookups").add(n);
}

ChannelRouteCache::ChannelRouteCache(const Network& net, const RouteFn& route)
    : net_(&net) {
  const auto terminal_vertices = net.terminals();
  terminals_ = static_cast<std::uint32_t>(terminal_vertices.size());
  terminal_index_.assign(net.vertex_count(), kNotATerminal);
  for (std::uint32_t t = 0; t < terminals_; ++t) {
    terminal_index_[terminal_vertices[t]] = t;
  }

  const std::uint64_t pairs = std::uint64_t{terminals_} * terminals_;
  offsets_.reserve(pairs + 1);
  offsets_.push_back(0);
  for (std::uint32_t s = 0; s < terminals_; ++s) {
    for (std::uint32_t d = 0; d < terminals_; ++d) {
      if (s != d) {
        const auto path = route(SDPair{LeafId{s}, LeafId{d}});
        // Validate chaining exactly like the old per-hop map build: the
        // run must start at the source terminal, chain channel to
        // channel, and end at the destination terminal.
        NBCLOS_REQUIRE(!path.empty(), "route produced an empty path");
        std::uint32_t at = terminal_vertices[s];
        for (const auto c : path) {
          NBCLOS_REQUIRE(c < net.channel_count(), "channel id out of range");
          NBCLOS_REQUIRE(net.channel_src(c) == at,
                         "path channels do not chain");
          channels_.push_back(c);
          at = net.channel_dst(c);
        }
        NBCLOS_REQUIRE(at == terminal_vertices[d],
                       "path does not end at the destination terminal");
      }
      NBCLOS_REQUIRE(channels_.size() <= UINT32_MAX,
                     "network too large for 32-bit route-cache offsets");
      offsets_.push_back(static_cast<std::uint32_t>(channels_.size()));
    }
  }
  channels_.shrink_to_fit();

  auto& registry = obs::metrics();
  registry.counter("route_cache.builds").add(1);
  registry.counter("route_cache.routes_materialized")
      .add(terminals_ > 0 ? pairs - terminals_ : 0);
  registry.gauge("route_cache.bytes").add(static_cast<std::int64_t>(bytes()));
}

std::shared_ptr<const ChannelRouteCache> ChannelRouteCache::materialize(
    const Network& net, const SinglePathRouting& routing) {
  const FoldedClos& ftree = routing.ftree();
  return std::make_shared<const ChannelRouteCache>(net, [&](SDPair sd) {
    LinkId run[FoldedClos::kMaxPathLinks];
    const auto count = ftree.links_into(routing.route(sd), run);
    std::vector<std::uint32_t> channels(count);
    for (std::uint32_t i = 0; i < count; ++i) channels[i] = run[i].value;
    return channels;
  });
}

std::uint32_t ChannelRouteCache::next_channel_from(std::uint32_t vertex,
                                                   std::uint32_t src,
                                                   std::uint32_t dst) const {
  NBCLOS_REQUIRE(src < terminal_index_.size() && dst < terminal_index_.size(),
                 "terminal vertex out of range");
  const auto s = terminal_index_[src];
  const auto d = terminal_index_[dst];
  NBCLOS_REQUIRE(s != kNotATerminal && d != kNotATerminal,
                 "packet endpoints are not terminals");
  for (const auto c : channels(s, d)) {
    if (net_->channel_src(c) == vertex) return c;
  }
  NBCLOS_REQUIRE(false, "no next hop recorded for packet at this vertex");
  return UINT32_MAX;  // unreachable
}

}  // namespace nbclos::routing
