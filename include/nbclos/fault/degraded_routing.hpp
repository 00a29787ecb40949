/// \file degraded_routing.hpp
/// \brief Degraded-mode fallback for the Theorem 3 routing.
///
/// YuanNonblockingRouting sends SD pair ((v, i), (w, j)) through top
/// switch (i, j).  When that top switch — or either of the two links the
/// path needs — is dead, the assignment must fall back.  DegradedYuanRouting
/// keeps the (i, j) assignment whenever it is live (preserving the
/// Theorem 3 nonblocking structure on the healthy part of the fabric) and
/// otherwise scans deterministically from (i, j) for the first usable top
/// switch.  The fallback is still a *local* decision in the paper's
/// distributed-control sense: it uses only the source's local number, the
/// destination address, and link-state liveness that every switch learns
/// from its routing protocol — no global traffic knowledge (the Lemma 3/4
/// class-DIFF constraints concern traffic-aware coordination, which this
/// never does).
///
/// Fallback necessarily sacrifices the strict Lemma 1 single-source /
/// single-destination property on the links it borrows; the FaultSweep
/// (sweep.hpp) measures how many failures the fabric absorbs before that
/// loss first manifests as a blocked permutation.
#pragma once

#include <optional>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/routing/single_path.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos::fault {

/// Liveness queries phrased in ftree coordinates, for Networks produced by
/// build_network() (channel id == LinkId value).  All queries are O(1).
/// Header-only, like DegradedView, so that sim::FtreeOracle can route
/// around faults without linking the fault library.
class FtreeLiveness {
 public:
  FtreeLiveness(const FoldedClos& ftree, const DegradedView& view)
      : ftree_(&ftree), view_(&view) {
    NBCLOS_REQUIRE(
        view.network().channel_count() == ftree.link_count() &&
            view.network().vertex_count() ==
                ftree.leaf_count() + ftree.switch_count(),
        "view's network does not match this ftree (must come from "
        "build_network)");
  }

  [[nodiscard]] const FoldedClos& ftree() const noexcept { return *ftree_; }
  [[nodiscard]] const DegradedView& view() const noexcept { return *view_; }

  [[nodiscard]] bool up_alive(BottomId b, TopId t) const {
    return view_->channel_alive(ftree_->up_link(b, t).value);
  }
  [[nodiscard]] bool down_alive(TopId t, BottomId b) const {
    return view_->channel_alive(ftree_->down_link(t, b).value);
  }
  [[nodiscard]] bool leaf_up_alive(LeafId leaf) const {
    return view_->channel_alive(ftree_->leaf_up_link(leaf).value);
  }
  [[nodiscard]] bool leaf_down_alive(LeafId leaf) const {
    return view_->channel_alive(ftree_->leaf_down_link(leaf).value);
  }
  /// Can cross traffic from bottom switch s to bottom switch d use top t?
  /// (up link, the top switch itself, and the down link must all be live;
  /// channel_alive already folds endpoint liveness in).
  [[nodiscard]] bool top_usable(BottomId s, BottomId d, TopId t) const {
    return up_alive(s, t) && down_alive(t, d);
  }

 private:
  const FoldedClos* ftree_;
  const DegradedView* view_;
};

class DegradedYuanRouting final : public SinglePathRouting {
 public:
  /// \pre ftree.m() >= ftree.n()^2 and view is over build_network(ftree).
  DegradedYuanRouting(const FoldedClos& ftree, const DegradedView& view);

  [[nodiscard]] std::string name() const override { return "yuan-degraded"; }

  /// The top switch this pair would use, or nullopt when no live top can
  /// carry it.  \pre sd is a cross-switch pair.
  [[nodiscard]] std::optional<TopId> try_top_for(SDPair sd) const;

  /// Full route including endpoint-link liveness; nullopt when the pair is
  /// unroutable on the degraded fabric.  \pre sd.src != sd.dst.
  [[nodiscard]] std::optional<FtreePath> try_route(SDPair sd) const;

  /// Whether this pair is currently forced off its Theorem 3 (i, j)
  /// assignment.  \pre sd is a cross-switch pair.
  [[nodiscard]] bool uses_fallback(SDPair sd) const;

  /// The pair's Theorem 3 (i, j) assignment, live or not.
  [[nodiscard]] TopId primary_top(SDPair sd) const;

  [[nodiscard]] const FtreeLiveness& liveness() const noexcept {
    return liveness_;
  }

 protected:
  /// Like try_top_for but throws precondition_error when unroutable, to
  /// satisfy the SinglePathRouting contract.
  [[nodiscard]] TopId top_for(SDPair sd) const override;

 private:
  FtreeLiveness liveness_;
};

}  // namespace nbclos::fault
