/// \file oracle.hpp
/// \brief Stateful per-hop routing decisions for the packet simulator.
///
/// An oracle answers: "this packet sits at this vertex — which outgoing
/// channel next?"  Oracles only see the SimView (local queue occupancy),
/// which is exactly the information a distributed switch has; this is how
/// the simulator stays faithful to the paper's "computer communication
/// environment".  `FtreeOracle` keeps the policies that need such state
/// (random and least-queue uplinks, and with a `fault::DegradedView`,
/// rerouting around dead links); a pure routing is a `routing::NextHop`
/// (next_hop.hpp), which `NextHopOracle` runs here unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nbclos/fault/degraded_routing.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/routing/single_path.hpp"
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
  kTable,       ///< per-SD fixed top switch from a SinglePathRouting
  kRandom,      ///< uniform random top switch per packet (oblivious)
  kLeastQueue,  ///< top switch whose uplink queue is shortest (local adaptive)
  kDModK,       ///< d-mod-k: routing::DModKRouting's top, dst leaf mod m
};

/// Oracle for ftree(n+m, r) networks built with build_network(): decides
/// up at the bottom switch (policy-dependent), down is forced
/// (routing::ftree_next_channel).
///
/// Given a `fault::DegradedView`, the oracle routes the degraded fabric:
/// the uplink policy picks among the top switches that can still reach
/// the destination's bottom switch.  A fixed assignment (kTable, kDModK)
/// that names an unusable top falls back to the least-loaded live one and
/// counts a reroute.  With no live route, or a dead forced hop (a link can die
/// while a packet is in flight), it returns `fault::kNoRoute` and the
/// engine drops the packet.  Decisions stay local in the paper's
/// distributed-control sense: which links are dead is the link state a
/// routing protocol floods, never traffic state.
class FtreeOracle final : public RoutingOracle {
 public:
  /// \param routing required iff policy == kTable (not owned; must
  ///        outlive): its top_for is the uplink of every cross pair.
  /// \param view    when given (not owned; must outlive, and cover
  ///        build_network(ftree)), the liveness the oracle routes around.
  FtreeOracle(const FoldedClos& ftree, UplinkPolicy policy,
              const SinglePathRouting* routing = nullptr,
              std::uint64_t seed = 7,
              const fault::DegradedView* view = nullptr);
  ~FtreeOracle() override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t next_channel(const SimView& view,
                                           std::uint32_t vertex,
                                           const Packet& packet) override;

  /// Times a packet found its fixed top switch unreachable and was
  /// steered to a live one (0 without a DegradedView).
  [[nodiscard]] std::uint64_t reroute_count() const noexcept {
    return reroutes_;
  }
  /// Times no live route existed and kNoRoute was returned.
  [[nodiscard]] std::uint64_t no_route_count() const noexcept {
    return no_routes_;
  }

 private:
  [[nodiscard]] std::uint32_t pick_uplink(const SimView& view,
                                          BottomId here, SDPair sd);

  const FoldedClos* ftree_;
  FtreeNetworkMap map_;
  UplinkPolicy policy_;
  std::unique_ptr<const SinglePathRouting> dmodk_;  ///< owned for kDModK
  const SinglePathRouting* routing_;  ///< kTable's or dmodk_; else null
  Xoshiro256 rng_;
  std::optional<fault::FtreeLiveness> liveness_;  ///< set iff given a view
  std::vector<std::uint32_t> candidates_;  ///< live tops; scratch
  // Accumulated locally (one plain increment on the hot path) and flushed
  // to the obs registry once, on destruction.
  std::uint64_t uplink_decisions_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t no_routes_ = 0;
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
