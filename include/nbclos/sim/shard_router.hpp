/// \file shard_router.hpp
/// \brief O(1) pure `routing::NextHop` routers for the fabrics that are
///        not `build_network(ftree)`: no per-pair state.
///
/// Every sharded worker consults its router concurrently, so routing
/// must be a pure function of (vertex, src, dst): no SimView, no
/// internal RNG, no mutation.  That rules out the adaptive and random
/// `RoutingOracle` policies by design — a distributed simulation can
/// only be bit-identical to a serial one when per-hop decisions do not
/// depend on global queue state.  Single-path routings on an ftree reach
/// the engines through `routing::TopChoiceNextHop` (next_hop.hpp); the
/// two other fabric families have their own arithmetic here, and neither
/// materializes a table (the per-pair cache is O(T^2) and cannot exist
/// at 10^6 terminals):
///
///   * `KaryDmodkRouter`      — digit arithmetic on `build_kary_ntree`
///     networks, reproducing `KaryTreeRouter::route` paths;
///   * `RecursiveShardRouter` — the recursive Theorem 3 rule on a
///     `MultiLevelFabric`.
///
/// `sim::NextHopOracle` (oracle.hpp) runs any of them in `PacketSim` —
/// that is how the golden tests prove `ShardedSim(k) == PacketSim`
/// bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nbclos/core/multilevel.hpp"
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
/// level agree.  The resulting paths are exactly
/// `KaryTreeRouter::route`'s (verified by tests/sim/test_shard_router).
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

/// The recursive Theorem 3 (i, j) rule on a `MultiLevelFabric`, as a
/// pure router: each hop re-derives the fabric's fixed single path for
/// the packet's SD pair and returns the path channel leaving `vertex`.
/// Deriving the path is O(levels) digit recursion with no shared state,
/// so the router is safe from every shard worker — and, unlike a
/// materialized `ChannelRouteCache`, needs no O(T^2) table.  The leaf
/// index space of the fabric IS its terminal vertex id space (leaves are
/// vertices 0..P-1), so packets address it directly.
class RecursiveShardRouter final : public routing::NextHop {
 public:
  /// \param fabric must outlive the router; its network must be the one
  ///        the simulation runs on.
  explicit RecursiveShardRouter(const MultiLevelFabric& fabric);

  [[nodiscard]] const Network& network() const override { return *net_; }
  /// fault::kNoRoute for a self pair or a vertex off the pair's path.
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override;
  [[nodiscard]] std::size_t bytes() const override { return 0; }
  [[nodiscard]] std::string name() const override {
    return "multilevel-thm3";
  }

 private:
  const MultiLevelFabric* fabric_;
  const Network* net_;
};

}  // namespace nbclos::sim
