/// \file network.hpp
/// \brief Generic directed network graph: the substrate for the packet
///        simulator and for multi-level topologies that do not fit the
///        closed-form FoldedClos index arithmetic.
///
/// Vertices are terminals (packet sources/sinks) or switches; channels
/// are directed unit-bandwidth links.  A Network is built once (builder
/// methods), then finalized, after which adjacency queries are O(1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos {

enum class VertexKind : std::uint8_t { kTerminal, kSwitch };

struct Vertex {
  VertexKind kind = VertexKind::kTerminal;
  std::uint32_t level = 0;           ///< 0 = terminals/edge, increasing upward
  std::uint32_t index_in_level = 0;  ///< position within its level
};

struct NetChannel {
  std::uint32_t src = 0;  ///< source vertex
  std::uint32_t dst = 0;  ///< destination vertex
};

/// A route through a Network: the channels a packet traverses, in order.
using ChannelPath = std::vector<std::uint32_t>;

class Network {
 public:
  /// Append a vertex; returns its id.
  std::uint32_t add_vertex(VertexKind kind, std::uint32_t level,
                           std::uint32_t index_in_level);
  /// Append a directed channel; returns its id.  Must precede finalize().
  std::uint32_t add_channel(std::uint32_t src, std::uint32_t dst);

  /// Pre-size the vertex and channel arrays.  A construction-time hint
  /// only — the million-terminal builders know their exact census up
  /// front and otherwise pay log2(size) reallocation copies of arrays
  /// that end up hundreds of megabytes.
  void reserve(std::uint32_t vertices, std::uint32_t channels);

  /// Build adjacency indexes.  Construction methods are rejected after
  /// this; query methods are rejected before it.
  void finalize();
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  [[nodiscard]] std::uint32_t vertex_count() const noexcept {
    return static_cast<std::uint32_t>(vertices_.size());
  }
  [[nodiscard]] std::uint32_t channel_count() const noexcept {
    return static_cast<std::uint32_t>(channel_src_.size());
  }
  [[nodiscard]] const Vertex& vertex(std::uint32_t v) const {
    NBCLOS_REQUIRE(v < vertices_.size(), "vertex id out of range");
    return vertices_[v];
  }
  /// Both endpoints of a channel, by value (endpoints live in separate
  /// flat arrays — see channel_src/channel_dst for the hot accessors).
  [[nodiscard]] NetChannel channel(std::uint32_t c) const {
    NBCLOS_REQUIRE(c < channel_src_.size(), "channel id out of range");
    return NetChannel{channel_src_[c], channel_dst_[c]};
  }
  /// Hot-path endpoint loads: one indexed read from a contiguous
  /// uint32 array, bounds-checked only in Debug builds.  The simulator
  /// consults these once per flit hop and the route caches once per
  /// cached channel, so they must compile to a bare load at -O3.
  [[nodiscard]] std::uint32_t channel_src(std::uint32_t c) const {
    NBCLOS_DEBUG_CHECK(c < channel_src_.size(), "channel id out of range");
    return channel_src_[c];
  }
  [[nodiscard]] std::uint32_t channel_dst(std::uint32_t c) const {
    NBCLOS_DEBUG_CHECK(c < channel_dst_.size(), "channel id out of range");
    return channel_dst_[c];
  }

  /// Outgoing / incoming channel ids of a vertex (finalized only).
  [[nodiscard]] std::span<const std::uint32_t> out_channels(std::uint32_t v) const;
  [[nodiscard]] std::span<const std::uint32_t> in_channels(std::uint32_t v) const;

  /// Channel from src to dst, if one exists (finalized only; O(out-degree)).
  [[nodiscard]] std::optional<std::uint32_t> find_channel(std::uint32_t src,
                                                          std::uint32_t dst) const;

  [[nodiscard]] std::vector<std::uint32_t> terminals() const;

 private:
  struct Csr {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> items;
    [[nodiscard]] std::span<const std::uint32_t> row(std::uint32_t v) const {
      return {items.data() + offsets[v], offsets[v + 1] - offsets[v]};
    }
  };

  std::vector<Vertex> vertices_;
  // Channel endpoints in structure-of-arrays form: channel c runs from
  // channel_src_[c] to channel_dst_[c].  Keeping each endpoint column
  // contiguous lets the per-flit / per-cached-channel loads above stay
  // single indexed reads with no struct padding or pointer chasing.
  std::vector<std::uint32_t> channel_src_;
  std::vector<std::uint32_t> channel_dst_;
  Csr out_;
  Csr in_;
  bool finalized_ = false;
};

/// The vertex-numbering contract used when converting a FoldedClos into a
/// Network: terminals first, then bottom switches, then top switches, and
/// channels added in exactly LinkId order (so channel id == LinkId value).
struct FtreeNetworkMap {
  FtreeParams params;

  [[nodiscard]] std::uint32_t terminal(LeafId leaf) const noexcept {
    return leaf.value;
  }
  [[nodiscard]] std::uint32_t bottom(BottomId v) const noexcept {
    return params.r * params.n + v.value;
  }
  [[nodiscard]] std::uint32_t top(TopId t) const noexcept {
    return params.r * params.n + params.r + t.value;
  }
  [[nodiscard]] bool is_terminal(std::uint32_t v) const noexcept {
    return v < params.r * params.n;
  }
  [[nodiscard]] bool is_bottom(std::uint32_t v) const noexcept {
    return v >= params.r * params.n && v < params.r * params.n + params.r;
  }
  [[nodiscard]] bool is_top(std::uint32_t v) const noexcept {
    return v >= params.r * params.n + params.r;
  }
  [[nodiscard]] LeafId leaf_of(std::uint32_t v) const {
    NBCLOS_REQUIRE(is_terminal(v), "vertex is not a terminal");
    return LeafId{v};
  }
  [[nodiscard]] BottomId bottom_of(std::uint32_t v) const {
    NBCLOS_REQUIRE(is_bottom(v), "vertex is not a bottom switch");
    return BottomId{v - params.r * params.n};
  }
  [[nodiscard]] TopId top_of(std::uint32_t v) const {
    NBCLOS_REQUIRE(is_top(v), "vertex is not a top switch");
    return TopId{v - params.r * params.n - params.r};
  }
};

/// Convert ftree(n+m, r) to a Network following FtreeNetworkMap.
[[nodiscard]] Network build_network(const FoldedClos& ftree);

/// An N-port single crossbar switch: N terminals around one switch.
/// Channel layout: terminal t -> switch is channel t; switch -> terminal
/// t is channel N + t.
[[nodiscard]] Network build_crossbar(std::uint32_t ports);

/// A k-ary h-tree (Petrini & Vanneschi): k^h terminals, h levels of
/// k^(h-1) switches.  Switch (level l, position w) links to switch
/// (l+1, w') iff the base-k digit strings of w and w' agree everywhere
/// except possibly digit l.  Terminals attach to level-0 switches.
[[nodiscard]] Network build_kary_ntree(std::uint32_t k, std::uint32_t h);

}  // namespace nbclos
