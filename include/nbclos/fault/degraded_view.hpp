/// \file degraded_view.hpp
/// \brief O(1) liveness mask over a finalized Network.
///
/// The paper's guarantees (Theorems 1-3) are proven for a pristine ftree;
/// production fabrics run degraded.  A DegradedView layers a mutable
/// failed/alive mask over an immutable Network so that routing oracles and
/// the packet simulator can ask "is this channel usable right now?" in
/// O(1) without rebuilding the graph.  A channel is *usable* when it has
/// not failed itself and both of its endpoint vertices are alive — failing
/// a switch therefore implicitly kills every channel touching it.
///
/// This header is intentionally header-only: the simulator engine consults
/// the view each cycle, and keeping it inline avoids a link-level cycle
/// between the sim library (which applies FaultEvents and whose
/// FtreeOracle routes around them) and the fault library (whose sweeps
/// run the sim).
#pragma once

#include <cstdint>
#include <vector>

#include "nbclos/topology/network.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::fault {

/// Sentinel an oracle may return from next_channel() when no live route
/// exists; the engine counts the packet as dropped.
inline constexpr std::uint32_t kNoRoute = UINT32_MAX;

enum class FaultAction : std::uint8_t {
  kFailChannel,
  kRecoverChannel,
  kFailVertex,
  kRecoverVertex,
};

/// One scheduled liveness transition.  `cycle` is measured from the start
/// of a simulator run (cycle 0 = first warmup cycle); events at cycle 0
/// describe a statically degraded fabric.
struct FaultEvent {
  std::uint64_t cycle = 0;
  FaultAction action = FaultAction::kFailChannel;
  std::uint32_t target = 0;  ///< channel id or vertex id, per action

  friend constexpr bool operator==(const FaultEvent&,
                                   const FaultEvent&) = default;
};

class DegradedView {
 public:
  explicit DegradedView(const Network& net)
      : net_(&net),
        channel_ok_(net.channel_count(), 1),
        vertex_ok_(net.vertex_count(), 1) {
    NBCLOS_REQUIRE(net.finalized(), "degraded view needs a finalized network");
  }

  [[nodiscard]] const Network& network() const noexcept { return *net_; }

  // --- mutation (idempotent: re-failing a failed element is a no-op) ----
  void fail_channel(std::uint32_t c) {
    NBCLOS_REQUIRE(c < channel_ok_.size(), "channel id out of range");
    if (channel_ok_[c] != 0) ++failed_channels_;
    channel_ok_[c] = 0;
  }
  void recover_channel(std::uint32_t c) {
    NBCLOS_REQUIRE(c < channel_ok_.size(), "channel id out of range");
    if (channel_ok_[c] == 0) --failed_channels_;
    channel_ok_[c] = 1;
  }
  void fail_vertex(std::uint32_t v) {
    NBCLOS_REQUIRE(v < vertex_ok_.size(), "vertex id out of range");
    if (vertex_ok_[v] != 0) ++failed_vertices_;
    vertex_ok_[v] = 0;
  }
  void recover_vertex(std::uint32_t v) {
    NBCLOS_REQUIRE(v < vertex_ok_.size(), "vertex id out of range");
    if (vertex_ok_[v] == 0) --failed_vertices_;
    vertex_ok_[v] = 1;
  }
  void apply(const FaultEvent& event) {
    switch (event.action) {
      case FaultAction::kFailChannel: fail_channel(event.target); return;
      case FaultAction::kRecoverChannel: recover_channel(event.target); return;
      case FaultAction::kFailVertex: fail_vertex(event.target); return;
      case FaultAction::kRecoverVertex: recover_vertex(event.target); return;
    }
    NBCLOS_ASSERT(false);
  }
  /// Return to the pristine state (everything alive).
  void reset() {
    channel_ok_.assign(channel_ok_.size(), 1);
    vertex_ok_.assign(vertex_ok_.size(), 1);
    failed_channels_ = 0;
    failed_vertices_ = 0;
  }

  // --- O(1) liveness queries -------------------------------------------
  [[nodiscard]] bool vertex_alive(std::uint32_t v) const {
    NBCLOS_REQUIRE(v < vertex_ok_.size(), "vertex id out of range");
    return vertex_ok_[v] != 0;
  }
  /// The channel itself has been failed (ignores endpoint liveness).
  [[nodiscard]] bool channel_failed(std::uint32_t c) const {
    NBCLOS_REQUIRE(c < channel_ok_.size(), "channel id out of range");
    return channel_ok_[c] == 0;
  }
  /// Usable: not failed and both endpoints alive.
  [[nodiscard]] bool channel_alive(std::uint32_t c) const {
    NBCLOS_REQUIRE(c < channel_ok_.size(), "channel id out of range");
    if (channel_ok_[c] == 0) return false;
    const auto& ch = net_->channel(c);
    return vertex_ok_[ch.src] != 0 && vertex_ok_[ch.dst] != 0;
  }

  [[nodiscard]] std::uint32_t failed_channel_count() const noexcept {
    return failed_channels_;
  }
  [[nodiscard]] std::uint32_t failed_vertex_count() const noexcept {
    return failed_vertices_;
  }
  [[nodiscard]] bool pristine() const noexcept {
    return failed_channels_ == 0 && failed_vertices_ == 0;
  }

  /// Live out-channels of a vertex (O(out-degree); convenience for tests
  /// and connectivity audits, not hot paths).
  [[nodiscard]] std::vector<std::uint32_t> alive_out_channels(
      std::uint32_t v) const {
    std::vector<std::uint32_t> live;
    for (const auto c : net_->out_channels(v)) {
      if (channel_alive(c)) live.push_back(c);
    }
    return live;
  }

 private:
  const Network* net_;
  std::vector<std::uint8_t> channel_ok_;
  std::vector<std::uint8_t> vertex_ok_;
  std::uint32_t failed_channels_ = 0;
  std::uint32_t failed_vertices_ = 0;
};

}  // namespace nbclos::fault
