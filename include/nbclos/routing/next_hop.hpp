/// \file next_hop.hpp
/// \brief The one pure next-hop interface every engine routes through.
///
/// Under a deterministic single-path routing (Theorem 3, d-mod-k) each
/// SD pair owns one fixed path, so every engine asks the same question:
/// "which channel does the (src, dst) flow take out of `vertex`?"
/// `NextHop` is that question.  The materialized `ChannelRouteCache` and
/// the O(1) arithmetic routers (sim/shard_router.hpp) answer it; the
/// flow engines, `ShardedSim`, and — through `sim::NextHopOracle` —
/// `PacketSim` ask it, each the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace nbclos {
class Network;
}

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

}  // namespace nbclos::routing
