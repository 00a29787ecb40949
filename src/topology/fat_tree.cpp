#include "nbclos/topology/fat_tree.hpp"

namespace nbclos {

FoldedClos::FoldedClos(FtreeParams params) : params_(params) {
  NBCLOS_REQUIRE(params.n >= 1, "ftree needs at least one leaf per switch");
  NBCLOS_REQUIRE(params.m >= 1, "ftree needs at least one top switch");
  NBCLOS_REQUIRE(params.r >= 2, "ftree needs at least two bottom switches");
  // Guard the 32-bit id space (keeps LinkId arithmetic overflow-free).
  const std::uint64_t leafs = std::uint64_t{params.r} * params.n;
  const std::uint64_t links = 2 * leafs + 2 * std::uint64_t{params.r} * params.m;
  NBCLOS_REQUIRE(links <= UINT32_MAX, "topology too large for 32-bit ids");
  if (params.n == 1) {
    n_is_one_ = UINT32_MAX;
  } else {
    n_reciprocal_ = UINT64_MAX / params.n + 1;
  }
}

LinkKind FoldedClos::kind_of(LinkId link) const {
  NBCLOS_REQUIRE(link.value < link_count(), "link id out of range");
  const std::uint32_t leafs = leaf_count();
  const std::uint32_t rm = r() * m();
  if (link.value < leafs) return LinkKind::kLeafUp;
  if (link.value < leafs + rm) return LinkKind::kUp;
  if (link.value < leafs + 2 * rm) return LinkKind::kDown;
  return LinkKind::kLeafDown;
}

std::vector<LinkId> FoldedClos::links_of(const FtreePath& path) const {
  LinkId links[kMaxPathLinks];
  const auto count = links_into(path, links);
  return std::vector<LinkId>(links, links + count);
}

void FoldedClos::validate() const {
  // Leaf round-trips.
  for (std::uint32_t v = 0; v < r(); ++v) {
    for (std::uint32_t k = 0; k < n(); ++k) {
      const LeafId leaf_id = leaf(BottomId{v}, k);
      NBCLOS_ASSERT(switch_of(leaf_id).value == v);
      NBCLOS_ASSERT(local_of(leaf_id) == k);
    }
  }
  // Link ids are a bijection onto [0, link_count()) with correct kinds.
  std::vector<bool> seen(link_count(), false);
  const auto visit = [&](LinkId link, LinkKind expect) {
    NBCLOS_ASSERT(link.value < link_count());
    NBCLOS_ASSERT(!seen[link.value]);
    seen[link.value] = true;
    NBCLOS_ASSERT(kind_of(link) == expect);
  };
  for (std::uint32_t leaf_raw = 0; leaf_raw < leaf_count(); ++leaf_raw) {
    visit(leaf_up_link(LeafId{leaf_raw}), LinkKind::kLeafUp);
    visit(leaf_down_link(LeafId{leaf_raw}), LinkKind::kLeafDown);
  }
  for (std::uint32_t v = 0; v < r(); ++v) {
    for (std::uint32_t t = 0; t < m(); ++t) {
      visit(up_link(BottomId{v}, TopId{t}), LinkKind::kUp);
      visit(down_link(TopId{t}, BottomId{v}), LinkKind::kDown);
    }
  }
  for (const bool b : seen) NBCLOS_ASSERT(b);
}

}  // namespace nbclos
