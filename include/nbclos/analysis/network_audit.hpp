/// \file network_audit.hpp
/// \brief Channel paths and per-channel load counting over arbitrary
///        Network graphs.
///
/// Lemma 1's proof never uses fat-tree structure, so the audit runs on
/// any Network: `lemma1_audit(const routing::NextHop&)` (contention.hpp)
/// walks the routing's next hops with `routing::walk_path`, which also
/// checks that each path chains from source to destination terminal.
/// This header keeps the load counting the multi-level recursive fabric
/// (§IV) samples random permutations with.
#pragma once

#include <cstdint>
#include <vector>

#include "nbclos/topology/network.hpp"

namespace nbclos {

/// A route through a Network: the channels a packet traverses, in order.
using ChannelPath = std::vector<std::uint32_t>;

/// Per-channel load counting for a set of routed paths.
class ChannelLoadMap {
 public:
  explicit ChannelLoadMap(const Network& net)
      : load_(net.channel_count(), 0) {}

  void add_path(const ChannelPath& path) {
    for (const auto c : path) ++load_.at(c);
  }

  [[nodiscard]] std::uint32_t load(std::uint32_t channel) const {
    return load_.at(channel);
  }
  [[nodiscard]] std::uint32_t contended_channels() const;
  [[nodiscard]] std::uint64_t colliding_pairs() const;
  [[nodiscard]] bool contention_free() const {
    return contended_channels() == 0;
  }

 private:
  std::vector<std::uint32_t> load_;
};

/// True when two or more of the given paths share a channel.
[[nodiscard]] bool network_has_contention(const Network& net,
                                          const std::vector<ChannelPath>& paths);

}  // namespace nbclos
