/// \file fat_tree.hpp
/// \brief The two-level folded-Clos topology ftree(n+m, r) — the central
///        object of the paper.
///
/// ftree(n+m, r) has:
///   * `r` bottom-level switches of radix n+m (n leaf ports, m uplinks),
///   * `m` top-level switches of radix r (one link per bottom switch),
///   * `r * n` leaf nodes.
/// All links are bidirectional; for contention analysis we model each
/// direction as its own directed link (uplink vs downlink), because a
/// full-duplex link only contends per direction.
#pragma once

#include <cstdint>
#include <vector>

#include "nbclos/topology/ids.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos {

/// Parameters of ftree(n+m, r).
struct FtreeParams {
  std::uint32_t n = 0;  ///< leaf ports per bottom switch
  std::uint32_t m = 0;  ///< number of top-level switches (uplinks per bottom)
  std::uint32_t r = 0;  ///< number of bottom-level switches

  friend constexpr bool operator==(const FtreeParams&,
                                   const FtreeParams&) = default;
};

/// Which of the four directed-link families a LinkId belongs to.
enum class LinkKind : std::uint8_t {
  kLeafUp,    ///< leaf -> bottom switch
  kUp,        ///< bottom switch -> top switch
  kDown,      ///< top switch -> bottom switch
  kLeafDown,  ///< bottom switch -> leaf
};

/// A route through the ftree.  Either a direct route (src and dst share a
/// bottom switch; no top switch involved) or a cross route through
/// exactly one top switch.
struct FtreePath {
  SDPair sd;
  bool direct = false;
  TopId top;  ///< meaningful only when !direct

  friend constexpr bool operator==(const FtreePath&, const FtreePath&) = default;
};

/// Immutable description of one ftree(n+m, r) instance plus all index
/// arithmetic: id <-> (switch, local) mappings and directed-link ids.
class FoldedClos {
 public:
  explicit FoldedClos(FtreeParams params);

  [[nodiscard]] const FtreeParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return params_.n; }
  [[nodiscard]] std::uint32_t m() const noexcept { return params_.m; }
  [[nodiscard]] std::uint32_t r() const noexcept { return params_.r; }

  [[nodiscard]] std::uint32_t leaf_count() const noexcept {
    return params_.r * params_.n;
  }
  [[nodiscard]] std::uint32_t bottom_count() const noexcept { return params_.r; }
  [[nodiscard]] std::uint32_t top_count() const noexcept { return params_.m; }
  [[nodiscard]] std::uint32_t switch_count() const noexcept {
    return params_.r + params_.m;
  }
  /// Radix (port count) of a bottom switch: n leaf ports + m uplinks.
  [[nodiscard]] std::uint32_t bottom_radix() const noexcept {
    return params_.n + params_.m;
  }
  /// Radix of a top switch: one port per bottom switch.
  [[nodiscard]] std::uint32_t top_radix() const noexcept { return params_.r; }

  // --- leaf numbering: leaf (v, k) = v * n + k -------------------------
  [[nodiscard]] LeafId leaf(BottomId v, std::uint32_t k) const {
    NBCLOS_DEBUG_CHECK(v.value < r() && k < n(), "leaf coordinates out of range");
    return LeafId{v.value * n() + k};
  }
  /// leaf / n, as a multiply-high by the stored reciprocal (no division).
  [[nodiscard]] BottomId switch_of(LeafId leaf) const {
    NBCLOS_DEBUG_CHECK(leaf.value < leaf_count(), "leaf id out of range");
    return BottomId{divide_by_n(leaf.value)};
  }
  /// Local node number within its bottom switch (the paper's `p`):
  /// leaf % n, as a multiply-subtract.
  [[nodiscard]] std::uint32_t local_of(LeafId leaf) const {
    NBCLOS_DEBUG_CHECK(leaf.value < leaf_count(), "leaf id out of range");
    return leaf.value - divide_by_n(leaf.value) * n();
  }

  // --- directed link ids ----------------------------------------------
  // Layout: [leaf-up | up | down | leaf-down] contiguous blocks.
  [[nodiscard]] std::uint32_t link_count() const noexcept {
    return 2 * leaf_count() + 2 * params_.r * params_.m;
  }
  [[nodiscard]] LinkId leaf_up_link(LeafId leaf) const {
    NBCLOS_DEBUG_CHECK(leaf.value < leaf_count(), "leaf id out of range");
    return LinkId{leaf.value};
  }
  [[nodiscard]] LinkId up_link(BottomId v, TopId t) const {
    NBCLOS_DEBUG_CHECK(v.value < r() && t.value < m(), "up-link out of range");
    return LinkId{leaf_count() + v.value * m() + t.value};
  }
  [[nodiscard]] LinkId down_link(TopId t, BottomId v) const {
    NBCLOS_DEBUG_CHECK(v.value < r() && t.value < m(), "down-link out of range");
    return LinkId{leaf_count() + r() * m() + t.value * r() + v.value};
  }
  [[nodiscard]] LinkId leaf_down_link(LeafId leaf) const {
    NBCLOS_DEBUG_CHECK(leaf.value < leaf_count(), "leaf id out of range");
    return LinkId{leaf_count() + 2 * r() * m() + leaf.value};
  }
  [[nodiscard]] LinkKind kind_of(LinkId link) const;

  // --- paths -----------------------------------------------------------
  /// A direct path (valid only when src and dst share a bottom switch).
  [[nodiscard]] FtreePath direct_path(SDPair sd) const {
    NBCLOS_DEBUG_CHECK(!needs_top(sd), "direct path requires same bottom switch");
    NBCLOS_DEBUG_CHECK(sd.src != sd.dst, "self-loop SD pair");
    return FtreePath{sd, /*direct=*/true, TopId{0}};
  }
  /// A cross path through the given top switch (src and dst must be in
  /// different bottom switches).
  [[nodiscard]] FtreePath cross_path(SDPair sd, TopId top) const {
    NBCLOS_DEBUG_CHECK(needs_top(sd), "cross path requires different switches");
    NBCLOS_DEBUG_CHECK(top.value < m(), "top switch out of range");
    return FtreePath{sd, /*direct=*/false, top};
  }
  /// Whether an SD pair needs a top-level switch.
  [[nodiscard]] bool needs_top(SDPair sd) const {
    return switch_of(sd.src) != switch_of(sd.dst);
  }

  /// The directed links traversed by a path, in order.
  [[nodiscard]] std::vector<LinkId> links_of(const FtreePath& path) const;

  /// Maximum number of directed links on any path (cross paths use 4).
  static constexpr std::uint32_t kMaxPathLinks = 4;

  /// Allocation-free variant of links_of: writes the path's links into
  /// `out` and returns how many were written (2 for direct, 4 for cross).
  /// This is the verification engine's hot path — every permutation
  /// evaluated routes O(leafs) paths through here.
  std::uint32_t links_into(const FtreePath& path,
                           LinkId (&out)[kMaxPathLinks]) const {
    if (path.direct) {
      out[0] = leaf_up_link(path.sd.src);
      out[1] = leaf_down_link(path.sd.dst);
      return 2;
    }
    out[0] = leaf_up_link(path.sd.src);
    out[1] = up_link(switch_of(path.sd.src), path.top);
    out[2] = down_link(path.top, switch_of(path.sd.dst));
    out[3] = leaf_down_link(path.sd.dst);
    return 4;
  }

  /// Number of SD pairs that must cross a top switch: r*(r-1)*n^2.
  [[nodiscard]] std::uint64_t cross_pair_count() const noexcept {
    const std::uint64_t rr = params_.r;
    const std::uint64_t nn = params_.n;
    return rr * (rr - 1) * nn * nn;
  }

  /// Structural self-check: verifies link-id bijectivity and leaf
  /// round-trips; throws invariant_error on failure.  Intended for tests.
  void validate() const;

 private:
  /// x / n for any 32-bit x.  For n >= 2, n_reciprocal_ = ceil(2^64 / n)
  /// and the high word of the 64x32-bit product is exact (Lemire, Kaser
  /// and Kurz, "Faster remainder by direct computation", 2019).  For
  /// n = 1 the reciprocal 2^64 does not fit, so it is 0 and n_is_one_
  /// (all ones) adds x back.
  [[nodiscard]] std::uint32_t divide_by_n(std::uint32_t x) const noexcept {
#ifdef __SIZEOF_INT128__
    __extension__ using uint128 = unsigned __int128;
#else
#error "FoldedClos leaf arithmetic requires a 128-bit multiply"
#endif
    const auto high = static_cast<std::uint32_t>(
        (static_cast<uint128>(n_reciprocal_) * x) >> 64);
    return high + (x & n_is_one_);
  }

  FtreeParams params_;
  std::uint64_t n_reciprocal_ = 0;
  std::uint32_t n_is_one_ = 0;
};

}  // namespace nbclos
