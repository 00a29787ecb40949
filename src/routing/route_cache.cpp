#include "nbclos/routing/route_cache.hpp"

#include <map>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/single_path.hpp"

namespace nbclos::routing {

namespace {

void note_resident_bytes(std::int64_t delta) {
  if (delta != 0) obs::metrics().gauge("route_cache.bytes").add(delta);
}

}  // namespace

RouteCache::RouteCache(const FoldedClos& ftree) : leafs_(ftree.leaf_count()) {
  NBCLOS_REQUIRE(ftree.m() < kTopLimit,
                 "too many top switches for 16-bit route-cache top ids");
}

RouteCache::~RouteCache() {
  note_resident_bytes(-static_cast<std::int64_t>(bytes()));
}

RouteCache RouteCache::materialize(const SinglePathRouting& routing) {
  const FoldedClos& ft = routing.ftree();
  return build(ft, [&](SDPair sd) {
    return ft.needs_top(sd)
               ? static_cast<std::uint16_t>(routing.top_for(sd).value)
               : kDirect;
  });
}

void RouteCache::note_build(std::uint64_t routed) const {
  auto& registry = obs::metrics();
  registry.counter("route_cache.builds").add(1);
  registry.counter("route_cache.routes_materialized").add(routed);
  note_resident_bytes(static_cast<std::int64_t>(bytes()));
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
  note_resident_bytes(static_cast<std::int64_t>(bytes()));
}

ChannelRouteCache::~ChannelRouteCache() {
  note_resident_bytes(-static_cast<std::int64_t>(bytes()));
}

namespace {

/// The link-id run of `path`, as a ChannelRouteCache route answer.
std::vector<std::uint32_t> link_channels(const FoldedClos& ftree,
                                         const FtreePath& path) {
  LinkId run[FoldedClos::kMaxPathLinks];
  const auto count = ftree.links_into(path, run);
  std::vector<std::uint32_t> channels(count);
  for (std::uint32_t i = 0; i < count; ++i) channels[i] = run[i].value;
  return channels;
}

}  // namespace

std::shared_ptr<const ChannelRouteCache> ChannelRouteCache::materialize(
    const Network& net, const SinglePathRouting& routing) {
  const FoldedClos& ftree = routing.ftree();
  return std::make_shared<const ChannelRouteCache>(net, [&](SDPair sd) {
    return link_channels(ftree, routing.route(sd));
  });
}

std::shared_ptr<const ChannelRouteCache> ChannelRouteCache::from_paths(
    const Network& net, const SinglePathRouting& base,
    std::span<const FtreePath> paths) {
  const FoldedClos& ftree = base.ftree();
  std::map<SDPair, FtreePath> scheduled;
  for (const auto& path : paths) {
    if (path.direct) continue;
    NBCLOS_REQUIRE(ftree.needs_top(path.sd) && path.top.value < ftree.m(),
                   "scheduled path is not a valid cross path");
    NBCLOS_REQUIRE(scheduled.emplace(path.sd, path).second,
                   "pair scheduled twice");
  }
  return std::make_shared<const ChannelRouteCache>(net, [&](SDPair sd) {
    const auto hit = scheduled.find(sd);
    return link_channels(ftree,
                         hit != scheduled.end() ? hit->second : base.route(sd));
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
