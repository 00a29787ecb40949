/// \file shard_router.hpp
/// \brief `KaryDmodkRouter`: the O(1) pure `routing::NextHop` of k-ary
///        n-trees, with no per-pair state.
///
/// Every sharded worker consults its router concurrently, so routing
/// must be a pure function of (vertex, src, dst): no SimView, no
/// internal RNG, no mutation.  That rules out the adaptive and random
/// `RoutingOracle` policies by design — a distributed simulation can
/// only be bit-identical to a serial one when per-hop decisions do not
/// depend on global queue state.  Single-path routings on an ftree reach
/// the engines through `routing::TopChoiceNextHop` (next_hop.hpp), and
/// the §IV multi-level fabric is its own `NextHop` (core/multilevel.hpp);
/// the k-ary tree's d-mod-k routing is digit arithmetic here, and
/// materializes no table (the per-pair cache is O(T^2) and cannot exist
/// at 10^6 terminals).
///
/// `sim::NextHopOracle` (oracle.hpp) runs it in `PacketSim` — that is
/// how the golden tests prove `ShardedSim(k) == PacketSim` bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nbclos/routing/next_hop.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos::sim {

/// Destination-keyed up*/down* routing on `build_kary_ntree(k, h)`
/// networks in O(1) per hop, with zero per-pair state.
///
/// The builder's channel numbering is formulaic — terminal p's uplink is
/// channel 2p and its downlink 2p+1; the up channel from switch (l, w)
/// toward digit d is B + 2*((l*P + w)*k + d) with B = 2*k^h and
/// P = k^(h-1), and the matching down channel is its successor — so the
/// next hop is pure digit arithmetic.  Ascent at level l rewrites digit
/// l to the destination's digit (the k-ary analogue of d-mod-k: the
/// uplink choice is keyed by the destination, spreading flows across the
/// tree deterministically); a switch descends exactly when the
/// destination's edge switch lies in its subtree, i.e. all digits >= its
/// level agree.  tests/sim/test_shard_router checks every walked path
/// against a reference built from this digit rule.
class KaryDmodkRouter final : public routing::NextHop {
 public:
  /// \param net must have been produced by build_kary_ntree(k, h); the
  ///        constructor checks the vertex/channel census.
  KaryDmodkRouter(const Network& net, std::uint32_t k, std::uint32_t h);

  [[nodiscard]] const Network& network() const override { return *net_; }
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override;
  [[nodiscard]] std::size_t bytes() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "kary-dmodk"; }

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t height() const noexcept { return h_; }

 private:
  const Network* net_;
  std::uint32_t k_ = 0;
  std::uint32_t h_ = 0;
  std::uint32_t terminals_ = 0;      ///< k^h
  std::uint32_t per_level_ = 0;      ///< k^(h-1)
  std::uint32_t inter_base_ = 0;     ///< first inter-switch channel id (2T)
  std::vector<std::uint64_t> powk_;  ///< k^0 .. k^(h-1)
};

}  // namespace nbclos::sim
