/// \file infiniband.hpp
/// \brief Deploying the Theorem 3 routing on destination-routed hardware
///        via multiple LIDs (the paper's ref [12], Lin-Chung-Huang; the
///        InfiniBand LMC mechanism).
///
/// Real switches forward by *destination address only* (a linear
/// forwarding table, LFT: destination LID -> output port).  The Theorem 3
/// assignment, however, depends on the source's local index i as well as
/// the destination's j — it is not expressible with one address per
/// node.  The standard fix, which InfiniBand supports natively (LMC),
/// is to give every destination n LIDs, one per source local index:
///
///   lid(d, i) = n * d + i      (destination leaf d, source local i)
///
/// and program the LFTs so that LID lid(d, i) travels via top switch
/// (i, j = local(d)).  A source (v, i) addressing d picks lid(d, i); the
/// network then realizes exactly the (i, j) path with plain
/// destination-based forwarding.  This module builds those LFTs, and the
/// fabric is a `routing::NextHop` over its own build_network(ftree)
/// graph: a terminal answers its leaf uplink and a switch its LFT entry,
/// so the engines run it and `routing::walk_path` forwards a packet end
/// to end.  The tests verify the LFT-forwarded paths are *identical* to
/// YuanNonblockingRouting's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nbclos/routing/next_hop.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos {

/// A LID (local identifier): the address packets are forwarded by.
struct Lid {
  std::uint32_t value = 0;
  friend constexpr auto operator<=>(Lid, Lid) = default;
};

class InfinibandFabric final : public routing::NextHop {
 public:
  /// Program LFTs for ftree(n+m, r) with m >= n^2 (Theorem 3 regime).
  /// `ftree` must outlive the fabric.
  explicit InfinibandFabric(const FoldedClos& ftree);

  [[nodiscard]] const FoldedClos& ftree() const noexcept { return *ftree_; }
  /// LIDs per destination (the LMC fan-out): n.
  [[nodiscard]] std::uint32_t lids_per_leaf() const noexcept {
    return ftree_->n();
  }
  [[nodiscard]] std::uint32_t lid_count() const noexcept {
    return ftree_->leaf_count() * ftree_->n();
  }

  /// The LID source s uses to reach destination d: lid(d, local(s)).
  [[nodiscard]] Lid lid_for(SDPair sd) const;
  /// Decompose a LID into (destination leaf, source-local index).
  [[nodiscard]] LeafId leaf_of(Lid lid) const;
  [[nodiscard]] std::uint32_t index_of(Lid lid) const;

  /// LFT lookup: the output channel a switch uses for a LID.  `vertex`
  /// must be a switch of build_network(ftree) (channel ids == LinkIds).
  [[nodiscard]] std::uint32_t forward(std::uint32_t vertex, Lid lid) const;

  /// build_network(ftree), the graph the LFTs' channel ids index.
  [[nodiscard]] const Network& network() const noexcept override {
    return net_;
  }
  /// A terminal's leaf uplink, or a switch's LFT entry for the pair's
  /// LID, lid_for({src, dst}): destination-based forwarding end to end.
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override;
  /// Resident bytes of every switch's LFT.
  [[nodiscard]] std::size_t bytes() const override {
    return (lft_bottom_.size() + lft_top_.size()) * lid_count() *
           sizeof(std::uint32_t);
  }
  [[nodiscard]] std::string name() const override { return "infiniband-lft"; }

  /// Bytes of LFT state per bottom switch (one entry per LID) — the
  /// hardware cost of the multiple-LID trick.
  [[nodiscard]] std::size_t lft_entries_per_switch() const noexcept {
    return lid_count();
  }

 private:
  const FoldedClos* ftree_;
  Network net_;
  FtreeNetworkMap map_;
  // lft_bottom_[v][lid] / lft_top_[t][lid]: output channel id.
  std::vector<std::vector<std::uint32_t>> lft_bottom_;
  std::vector<std::vector<std::uint32_t>> lft_top_;
};

}  // namespace nbclos
