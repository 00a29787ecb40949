/// \file failure_model.hpp
/// \brief Deterministic fault injection: static failure sets and scheduled
///        mid-run failure/recovery events.
///
/// A FailureModel is a recorded *plan* of FaultEvents against one Network.
/// Plans come from three sources:
///   * explicit calls (fail this channel at this cycle);
///   * ftree-coordinate conveniences (fail an uplink pair or a whole top
///     switch), valid for Networks produced by build_network(), whose
///     channel ids equal FoldedClos LinkIds;
///   * seeded random injection, reproducible bit-for-bit from a 64-bit
///     seed.  Random uplink failures for a given (ftree, seed) are drawn
///     as a prefix of one fixed shuffled order, so the failure set at
///     count k+1 is a superset of the set at count k — which is what
///     makes a "how many failures until blocking" margin well defined.
///
/// The plan can be applied wholesale to a DegradedView (static analysis)
/// or handed to PacketSim as a schedule (mid-run degradation).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos::fault {

class FailureModel {
 public:
  explicit FailureModel(const Network& net) : net_(&net) {
    NBCLOS_REQUIRE(net.finalized(), "failure model needs a finalized network");
  }

  [[nodiscard]] const Network& network() const noexcept { return *net_; }

  // --- explicit events --------------------------------------------------
  void fail_channel(std::uint32_t channel, std::uint64_t cycle = 0);
  void recover_channel(std::uint32_t channel, std::uint64_t cycle);
  void fail_vertex(std::uint32_t vertex, std::uint64_t cycle = 0);
  void recover_vertex(std::uint32_t vertex, std::uint64_t cycle);

  // --- ftree conveniences (Network from build_network() only) -----------
  /// Fail both directions of the bidirectional link between bottom switch
  /// b and top switch t.
  void fail_uplink_pair(const FoldedClos& ftree, BottomId b, TopId t,
                        std::uint64_t cycle = 0);
  /// Fail a whole top switch (its vertex; all r link pairs die
  /// implicitly through endpoint liveness).
  void fail_top_switch(const FoldedClos& ftree, TopId t,
                       std::uint64_t cycle = 0);

  // --- seeded random injection -----------------------------------------
  /// Fail `count` distinct bottom<->top uplink pairs chosen by `seed`
  /// (both directions each).  Nested: a larger count with the same seed
  /// fails a superset of the pairs a smaller count fails.
  void inject_random_uplink_failures(const FoldedClos& ftree,
                                     std::uint32_t count, std::uint64_t seed,
                                     std::uint64_t cycle = 0);

  /// The deterministic (bottom, top) order behind
  /// inject_random_uplink_failures — exposed so sweeps can grow failure
  /// sets one link at a time without re-deriving the shuffle.
  [[nodiscard]] static std::vector<std::pair<BottomId, TopId>>
  shuffled_uplink_pairs(const FoldedClos& ftree, std::uint64_t seed);

  // --- consuming the plan ----------------------------------------------
  /// Events in insertion order.
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  /// Events stably sorted by cycle — the form PacketSim consumes.
  [[nodiscard]] std::vector<FaultEvent> schedule() const;
  /// Apply every event with event.cycle <= cycle, in schedule order.
  void apply_up_to(DegradedView& view, std::uint64_t cycle) const;
  /// Apply the static (cycle 0) portion of the plan.
  void apply_static(DegradedView& view) const { apply_up_to(view, 0); }

 private:
  void require_ftree_net(const FoldedClos& ftree) const;

  const Network* net_;
  std::vector<FaultEvent> events_;
};

}  // namespace nbclos::fault
