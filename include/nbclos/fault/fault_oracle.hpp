/// \file fault_oracle.hpp
/// \brief Fault-aware per-hop routing for the packet simulator.
///
/// FaultTolerantOracle is the degraded-operation counterpart of
/// sim::FtreeOracle: at a bottom switch it restricts the uplink choice to
/// top switches that can still reach the destination's bottom switch, then
/// applies the configured UplinkPolicy among the survivors.  Decisions
/// stay local in the paper's distributed-control sense: a switch knows its
/// own link states, and which remote links are dead is exactly the
/// link-state information a routing protocol floods — never traffic state.
/// When no live route exists the oracle returns fault::kNoRoute and the
/// engine counts the packet as dropped.
#pragma once

#include <string>

#include "nbclos/fault/degraded_routing.hpp"
#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/sim/oracle.hpp"

namespace nbclos::fault {

class FaultTolerantOracle final : public sim::RoutingOracle {
 public:
  /// \param routing required iff policy == UplinkPolicy::kTable (not
  ///        owned; must outlive).  Its top_for is the *primary*
  ///        assignment; when that top switch is unreachable the oracle
  ///        falls back to the least-loaded live alternative.
  FaultTolerantOracle(const FoldedClos& ftree, const DegradedView& view,
                      sim::UplinkPolicy policy,
                      const SinglePathRouting* routing = nullptr,
                      std::uint64_t seed = 7);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t next_channel(const sim::SimView& view,
                                           std::uint32_t vertex,
                                           const sim::Packet& packet) override;

  /// Times a packet found its preferred uplink dead and was steered to an
  /// alternative live top switch.
  [[nodiscard]] std::uint64_t reroute_count() const noexcept {
    return reroutes_;
  }
  /// Times no live route existed and kNoRoute was returned.
  [[nodiscard]] std::uint64_t no_route_count() const noexcept {
    return no_routes_;
  }

 private:
  [[nodiscard]] std::uint32_t pick_uplink(const sim::SimView& view,
                                          BottomId here, SDPair sd);

  FtreeLiveness liveness_;
  FtreeNetworkMap map_;
  sim::UplinkPolicy policy_;
  const SinglePathRouting* routing_;
  Xoshiro256 rng_;
  std::uint64_t reroutes_ = 0;
  std::uint64_t no_routes_ = 0;
  std::vector<std::uint32_t> candidates_;  ///< scratch, avoids realloc
};

}  // namespace nbclos::fault
