/// \file oracle.hpp
/// \brief Per-hop routing decisions for the packet simulator.
///
/// An oracle answers: "this packet sits at this vertex — which outgoing
/// channel next?"  Oracles only see the SimView (local queue occupancy),
/// which is exactly the information a distributed switch has; this is how
/// the simulator stays faithful to the paper's "computer communication
/// environment".
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "nbclos/routing/next_hop.hpp"
#include "nbclos/routing/table.hpp"
#include "nbclos/sim/packet.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/prng.hpp"

namespace nbclos::sim {

/// Read-only view of simulator state an oracle may consult.  Local
/// adaptivity = looking at the occupancy of this switch's own output
/// queues; nothing else is exposed.
class SimView {
 public:
  SimView(const Network& net, const std::vector<std::uint32_t>& queue_depth)
      : net_(&net), queue_depth_(&queue_depth) {}

  [[nodiscard]] const Network& network() const noexcept { return *net_; }
  /// Packets currently waiting on channel c's output queue.
  [[nodiscard]] std::uint32_t queue_depth(std::uint32_t channel) const {
    return (*queue_depth_)[channel];
  }

 private:
  const Network* net_;
  const std::vector<std::uint32_t>* queue_depth_;
};

class RoutingOracle {
 public:
  virtual ~RoutingOracle() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// The outgoing channel for `packet` at `vertex`.
  [[nodiscard]] virtual std::uint32_t next_channel(const SimView& view,
                                                   std::uint32_t vertex,
                                                   const Packet& packet) = 0;
};

/// How a fat-tree oracle picks the uplink for cross-switch packets.
enum class UplinkPolicy : std::uint8_t {
  kTable,       ///< per-SD fixed top switch from a RoutingTable
  kRandom,      ///< uniform random top switch per packet (oblivious)
  kLeastQueue,  ///< top switch whose uplink queue is shortest (local adaptive)
  kDModK,       ///< dst leaf id mod m (computed on the fly, no table)
};

/// Oracle for ftree(n+m, r) networks built with build_network(): decides
/// up at the bottom switch (policy-dependent), down is forced.
class FtreeOracle final : public RoutingOracle {
 public:
  /// \param table required iff policy == kTable (not owned; must outlive).
  FtreeOracle(const FoldedClos& ftree, UplinkPolicy policy,
              const RoutingTable* table = nullptr, std::uint64_t seed = 7);
  ~FtreeOracle() override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t next_channel(const SimView& view,
                                           std::uint32_t vertex,
                                           const Packet& packet) override;

  /// Cross-switch uplink choices made so far (the policy-dependent
  /// decisions; injections, descents, and local delivery are forced).
  [[nodiscard]] std::uint64_t uplink_decisions() const noexcept {
    return uplink_decisions_;
  }

 private:
  const FoldedClos* ftree_;
  FtreeNetworkMap map_;
  UplinkPolicy policy_;
  const RoutingTable* table_;
  Xoshiro256 rng_;
  // Accumulated locally (one plain increment on the hot path) and flushed
  // to the obs registry once, on destruction.
  std::uint64_t uplink_decisions_ = 0;
};

/// Runs any pure `routing::NextHop` — a `ChannelRouteCache` or an O(1)
/// router — in PacketSim.  With the router a ShardedSim run uses, the
/// two engines take identical paths (the cross-engine golden tests).
class NextHopOracle final : public RoutingOracle {
 public:
  /// \param next_hop not owned; must outlive the oracle.
  explicit NextHopOracle(const routing::NextHop& next_hop)
      : next_hop_(&next_hop) {}

  [[nodiscard]] std::string name() const override {
    return next_hop_->name();
  }
  [[nodiscard]] std::uint32_t next_channel(const SimView& /*view*/,
                                           std::uint32_t vertex,
                                           const Packet& packet) override {
    return next_hop_->next_channel_from(vertex, packet.src_terminal,
                                        packet.dst_terminal);
  }

 private:
  const routing::NextHop* next_hop_;
};

/// Oracle for the single crossbar from build_crossbar().
class CrossbarOracle final : public RoutingOracle {
 public:
  explicit CrossbarOracle(std::uint32_t ports) : ports_(ports) {}
  [[nodiscard]] std::string name() const override { return "crossbar"; }
  [[nodiscard]] std::uint32_t next_channel(const SimView& view,
                                           std::uint32_t vertex,
                                           const Packet& packet) override;

 private:
  std::uint32_t ports_;
};

}  // namespace nbclos::sim
