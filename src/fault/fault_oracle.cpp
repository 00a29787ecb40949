#include "nbclos/fault/fault_oracle.hpp"

namespace nbclos::fault {

FaultTolerantOracle::FaultTolerantOracle(const FoldedClos& ftree,
                                         const DegradedView& view,
                                         sim::UplinkPolicy policy,
                                         const SinglePathRouting* routing,
                                         std::uint64_t seed)
    : liveness_(ftree, view), map_{ftree.params()}, policy_(policy),
      routing_(routing), rng_(seed) {
  if (policy == sim::UplinkPolicy::kTable) {
    NBCLOS_REQUIRE(routing != nullptr, "table policy needs a routing");
  }
  candidates_.reserve(ftree.m());
}

std::string FaultTolerantOracle::name() const {
  switch (policy_) {
    case sim::UplinkPolicy::kTable: return "ftree-fault-table";
    case sim::UplinkPolicy::kRandom: return "ftree-fault-random";
    case sim::UplinkPolicy::kLeastQueue: return "ftree-fault-least-queue";
    case sim::UplinkPolicy::kDModK: return "ftree-fault-dmodk";
  }
  return "ftree-fault-unknown";
}

std::uint32_t FaultTolerantOracle::pick_uplink(const sim::SimView& view,
                                               BottomId here, SDPair sd) {
  const auto& ft = liveness_.ftree();
  const BottomId dstb = ft.switch_of(sd.dst);
  candidates_.clear();
  for (std::uint32_t t = 0; t < ft.m(); ++t) {
    if (liveness_.top_usable(here, dstb, TopId{t})) candidates_.push_back(t);
  }
  if (candidates_.empty()) {
    ++no_routes_;
    return kNoRoute;
  }

  const auto usable = [&](std::uint32_t t) {
    return liveness_.top_usable(here, dstb, TopId{t});
  };
  const auto least_queue = [&]() {
    std::uint32_t best_top = candidates_.front();
    std::uint32_t best_depth = UINT32_MAX;
    for (const auto t : candidates_) {
      const auto depth = view.queue_depth(ft.up_link(here, TopId{t}).value);
      if (depth < best_depth) {
        best_depth = depth;
        best_top = t;
      }
    }
    return best_top;
  };

  std::uint32_t chosen = 0;
  switch (policy_) {
    case sim::UplinkPolicy::kTable: {
      const TopId top = routing_->top_for(sd);
      if (usable(top.value)) {
        chosen = top.value;
      } else {
        ++reroutes_;
        chosen = least_queue();
      }
      break;
    }
    case sim::UplinkPolicy::kDModK: {
      const std::uint32_t preferred = sd.dst.value % ft.m();
      if (usable(preferred)) {
        chosen = preferred;
      } else {
        ++reroutes_;
        // Deterministic scan from the static choice, mirroring
        // DegradedYuanRouting's fallback order.
        chosen = preferred;
        for (std::uint32_t step = 1; step < ft.m(); ++step) {
          const std::uint32_t t = (preferred + step) % ft.m();
          if (usable(t)) {
            chosen = t;
            break;
          }
        }
      }
      break;
    }
    case sim::UplinkPolicy::kRandom:
      chosen = candidates_[rng_.below(candidates_.size())];
      break;
    case sim::UplinkPolicy::kLeastQueue:
      chosen = least_queue();
      break;
  }
  return ft.up_link(here, TopId{chosen}).value;
}

std::uint32_t FaultTolerantOracle::next_channel(const sim::SimView& view,
                                                std::uint32_t vertex,
                                                const sim::Packet& packet) {
  const auto& ft = liveness_.ftree();
  const LeafId dst{packet.dst_terminal};
  NBCLOS_REQUIRE(map_.is_terminal(packet.dst_terminal),
                 "destination is not a terminal");

  const auto live_or_drop = [&](std::uint32_t channel) {
    if (liveness_.view().channel_alive(channel)) return channel;
    ++no_routes_;
    return kNoRoute;
  };

  if (map_.is_terminal(vertex)) {
    // Inject: the leaf-up channel is the only exit.
    return live_or_drop(ft.leaf_up_link(LeafId{vertex}).value);
  }
  if (map_.is_top(vertex)) {
    // Descend — forced; a dead down link at this point loses the packet
    // (fault-aware uplink selection avoids creating this situation, but a
    // link can die while the packet is in flight).
    return live_or_drop(
        ft.down_link(map_.top_of(vertex), ft.switch_of(dst)).value);
  }
  const BottomId here = map_.bottom_of(vertex);
  if (ft.switch_of(dst) == here) {
    return live_or_drop(ft.leaf_down_link(dst).value);
  }
  return pick_uplink(view, here, {LeafId{packet.src_terminal}, dst});
}

}  // namespace nbclos::fault
