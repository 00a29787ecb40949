#include "nbclos/sim/oracle.hpp"

#include <cstddef>
#include <ranges>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/baselines.hpp"

namespace nbclos::sim {

FtreeOracle::FtreeOracle(const FoldedClos& ftree, UplinkPolicy policy,
                         const SinglePathRouting* routing,
                         std::uint64_t seed, const fault::DegradedView* view)
    : ftree_(&ftree), map_{ftree.params()}, policy_(policy),
      routing_(policy == UplinkPolicy::kTable ? routing : nullptr),
      rng_(seed) {
  if (policy == UplinkPolicy::kTable) {
    NBCLOS_REQUIRE(routing != nullptr, "table policy needs a routing");
  }
  if (policy == UplinkPolicy::kDModK) {
    dmodk_ = std::make_unique<DModKRouting>(ftree);
    routing_ = dmodk_.get();
  }
  if (view != nullptr) {
    liveness_.emplace(ftree, *view);
    candidates_.reserve(ftree.m());
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
  const std::string prefix = liveness_ ? "ftree-fault-" : "ftree-";
  switch (policy_) {
    case UplinkPolicy::kTable: return prefix + "table";
    case UplinkPolicy::kRandom: return prefix + "random";
    case UplinkPolicy::kLeastQueue: return prefix + "least-queue";
    case UplinkPolicy::kDModK: return prefix + "dmodk";
  }
  return prefix + "unknown";
}

std::uint32_t FtreeOracle::next_channel(const SimView& view,
                                        std::uint32_t vertex,
                                        const Packet& packet) {
  const LeafId dst{packet.dst_terminal};  // terminals are ids [0, leafs)
  NBCLOS_REQUIRE(map_.is_terminal(packet.dst_terminal),
                 "destination is not a terminal");
  const std::uint32_t channel = routing::ftree_next_channel(
      *ftree_, map_, vertex, dst, [&](BottomId here) {
        return pick_uplink(view, here, {LeafId{packet.src_terminal}, dst});
      });
  // A chosen uplink is live by construction; a forced hop over a dead
  // link loses the packet.
  if (!liveness_ || channel == fault::kNoRoute ||
      liveness_->view().channel_alive(channel)) {
    return channel;
  }
  ++no_routes_;
  return fault::kNoRoute;
}

std::uint32_t FtreeOracle::pick_uplink(const SimView& view, BottomId here,
                                       SDPair sd) {
  const FoldedClos& ft = *ftree_;
  ++uplink_decisions_;
  // The top whose uplink queue at `here` is shortest among `tops`, the
  // first on ties.  Local adaptivity: only this switch's own queues.
  const auto least_queue = [&](const auto& tops) {
    TopId best{*tops.begin()};
    std::uint32_t best_depth = UINT32_MAX;
    for (const std::uint32_t t : tops) {
      const auto depth = view.queue_depth(ft.up_link(here, TopId{t}).value);
      if (depth < best_depth) {
        best_depth = depth;
        best = TopId{t};
      }
    }
    return best;
  };
  // The policy's top among the candidate `tops` (ascending top ids).
  const auto choose = [&](const auto& tops) {
    switch (policy_) {
      case UplinkPolicy::kTable:
      case UplinkPolicy::kDModK: return routing_->top_for(sd);
      case UplinkPolicy::kRandom: {
        const auto draw = static_cast<std::ptrdiff_t>(rng_.below(tops.size()));
        return TopId{tops.begin()[draw]};
      }
      case UplinkPolicy::kLeastQueue: return least_queue(tops);
    }
    NBCLOS_ASSERT(false);
    return TopId{0};
  };

  if (!liveness_) {
    // Pristine: every top is a candidate and no liveness is consulted.
    return ft.up_link(here, choose(std::views::iota(0U, ft.m()))).value;
  }
  const BottomId dst_switch = ft.switch_of(sd.dst);
  candidates_.clear();
  for (std::uint32_t t = 0; t < ft.m(); ++t) {
    if (liveness_->top_usable(here, dst_switch, TopId{t})) {
      candidates_.push_back(t);
    }
  }
  if (candidates_.empty()) {
    ++no_routes_;
    return fault::kNoRoute;
  }
  TopId top = choose(candidates_);
  if (!liveness_->top_usable(here, dst_switch, top)) {
    // Only a fixed assignment can name a dead top.
    ++reroutes_;
    top = least_queue(candidates_);
  }
  return ft.up_link(here, top).value;
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
