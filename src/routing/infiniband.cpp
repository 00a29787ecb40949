#include "nbclos/routing/infiniband.hpp"

#include "nbclos/util/check.hpp"

namespace nbclos {

InfinibandFabric::InfinibandFabric(const FoldedClos& ftree)
    : ftree_(&ftree), net_(build_network(ftree)), map_{ftree.params()} {
  NBCLOS_REQUIRE(std::uint64_t{ftree.m()} >= std::uint64_t{ftree.n()} * ftree.n(),
                 "multiple-LID Theorem 3 programming needs m >= n^2");
  const std::uint32_t n = ftree.n();
  const std::uint32_t lids = lid_count();

  // Bottom-switch LFTs: for LID (d, i) at switch v —
  //   * d attached here: deliver on the leaf-down port;
  //   * otherwise climb to top switch (i, j = local(d)).
  lft_bottom_.assign(ftree.bottom_count(),
                     std::vector<std::uint32_t>(lids, 0));
  for (std::uint32_t v = 0; v < ftree.bottom_count(); ++v) {
    for (std::uint32_t lid = 0; lid < lids; ++lid) {
      const LeafId d{lid / n};
      const std::uint32_t i = lid % n;
      if (ftree.switch_of(d).value == v) {
        lft_bottom_[v][lid] = ftree.leaf_down_link(d).value;
      } else {
        const TopId top{i * n + ftree.local_of(d)};
        lft_bottom_[v][lid] = ftree.up_link(BottomId{v}, top).value;
      }
    }
  }
  // Top-switch LFTs: descend toward the destination's bottom switch.
  lft_top_.assign(ftree.top_count(), std::vector<std::uint32_t>(lids, 0));
  for (std::uint32_t t = 0; t < ftree.top_count(); ++t) {
    for (std::uint32_t lid = 0; lid < lids; ++lid) {
      const LeafId d{lid / n};
      lft_top_[t][lid] = ftree.down_link(TopId{t}, ftree.switch_of(d)).value;
    }
  }
}

Lid InfinibandFabric::lid_for(SDPair sd) const {
  NBCLOS_REQUIRE(sd.src.value < ftree_->leaf_count() &&
                     sd.dst.value < ftree_->leaf_count(),
                 "leaf id out of range");
  return Lid{sd.dst.value * ftree_->n() + ftree_->local_of(sd.src)};
}

LeafId InfinibandFabric::leaf_of(Lid lid) const {
  NBCLOS_REQUIRE(lid.value < lid_count(), "LID out of range");
  return LeafId{lid.value / ftree_->n()};
}

std::uint32_t InfinibandFabric::index_of(Lid lid) const {
  NBCLOS_REQUIRE(lid.value < lid_count(), "LID out of range");
  return lid.value % ftree_->n();
}

std::uint32_t InfinibandFabric::forward(std::uint32_t vertex, Lid lid) const {
  NBCLOS_REQUIRE(lid.value < lid_count(), "LID out of range");
  if (map_.is_bottom(vertex)) {
    return lft_bottom_[map_.bottom_of(vertex).value][lid.value];
  }
  NBCLOS_REQUIRE(map_.is_top(vertex), "vertex is not a switch");
  return lft_top_[map_.top_of(vertex).value][lid.value];
}

std::uint32_t InfinibandFabric::next_channel_from(std::uint32_t vertex,
                                                  std::uint32_t src,
                                                  std::uint32_t dst) const {
  if (map_.is_terminal(vertex)) {
    return ftree_->leaf_up_link(LeafId{vertex}).value;
  }
  return forward(vertex, lid_for({LeafId{src}, LeafId{dst}}));
}

}  // namespace nbclos
