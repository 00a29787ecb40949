#include "nbclos/sim/oracle.hpp"

#include "nbclos/obs/metrics.hpp"

namespace nbclos::sim {

FtreeOracle::FtreeOracle(const FoldedClos& ftree, UplinkPolicy policy,
                         const SinglePathRouting* routing,
                         std::uint64_t seed)
    : ftree_(&ftree), map_{ftree.params()}, policy_(policy),
      routing_(routing), rng_(seed) {
  if (policy == UplinkPolicy::kTable) {
    NBCLOS_REQUIRE(routing != nullptr, "table policy needs a routing");
  }
}

FtreeOracle::~FtreeOracle() {
  if constexpr (obs::kEnabled) {
    if (uplink_decisions_ > 0 && obs::enabled()) {
      obs::metrics().counter("sim.oracle.uplink_decisions")
          .add(uplink_decisions_);
    }
  }
}

std::string FtreeOracle::name() const {
  switch (policy_) {
    case UplinkPolicy::kTable: return "ftree-table";
    case UplinkPolicy::kRandom: return "ftree-random";
    case UplinkPolicy::kLeastQueue: return "ftree-least-queue";
    case UplinkPolicy::kDModK: return "ftree-dmodk";
  }
  return "ftree-unknown";
}

std::uint32_t FtreeOracle::next_channel(const SimView& view,
                                        std::uint32_t vertex,
                                        const Packet& packet) {
  const auto& ft = *ftree_;
  const LeafId dst{packet.dst_terminal};  // terminals are ids [0, leafs)
  NBCLOS_REQUIRE(map_.is_terminal(packet.dst_terminal),
                 "destination is not a terminal");

  if (map_.is_terminal(vertex)) {
    // Inject: the only output is the leaf-up channel.
    return ft.leaf_up_link(LeafId{vertex}).value;
  }
  if (map_.is_top(vertex)) {
    // Descend toward the destination's bottom switch — forced.
    return ft.down_link(map_.top_of(vertex), ft.switch_of(dst)).value;
  }
  const BottomId here = map_.bottom_of(vertex);
  if (ft.switch_of(dst) == here) {
    // Deliver locally.
    return ft.leaf_down_link(dst).value;
  }
  // Cross-switch: choose a top switch per the uplink policy.
  ++uplink_decisions_;
  const SDPair sd{LeafId{packet.src_terminal}, dst};
  switch (policy_) {
    case UplinkPolicy::kTable:
      return ft.up_link(here, routing_->top_for(sd)).value;
    case UplinkPolicy::kRandom: {
      const auto top = static_cast<std::uint32_t>(rng_.below(ft.m()));
      return ft.up_link(here, TopId{top}).value;
    }
    case UplinkPolicy::kLeastQueue: {
      // Local adaptivity: inspect only this switch's own uplink queues.
      std::uint32_t best_top = 0;
      std::uint32_t best_depth = UINT32_MAX;
      for (std::uint32_t t = 0; t < ft.m(); ++t) {
        const auto depth =
            view.queue_depth(ft.up_link(here, TopId{t}).value);
        if (depth < best_depth) {
          best_depth = depth;
          best_top = t;
        }
      }
      return ft.up_link(here, TopId{best_top}).value;
    }
    case UplinkPolicy::kDModK:
      return ft.up_link(here, TopId{dst.value % ft.m()}).value;
  }
  NBCLOS_ASSERT(false);
  return 0;
}

std::uint32_t CrossbarOracle::next_channel(const SimView& view,
                                           std::uint32_t vertex,
                                           const Packet& packet) {
  // Vertex layout from build_crossbar(): terminals [0, ports), switch at
  // `ports`.  Terminal t's uplink is channel t; downlink to t is ports+t.
  if (vertex < ports_) return vertex;  // terminal -> switch
  NBCLOS_REQUIRE(vertex == ports_, "unexpected vertex in crossbar");
  (void)view;
  return ports_ + packet.dst_terminal;  // switch -> destination terminal
}

}  // namespace nbclos::sim
