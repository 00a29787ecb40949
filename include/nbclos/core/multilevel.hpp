/// \file multilevel.hpp
/// \brief The recursive multi-level nonblocking folded-Clos construction
///        of the paper's §IV discussion, built as a real network graph.
///
/// The paper: "to obtain a 3-level nonblocking network, a 2-level
/// nonblocking network can be used to replace each of the top level
/// switches" (growing the top, per Theorem 1), and the result supports
/// all permutations with no contention by induction.  We implement the
/// construction for arbitrary depth:
///
///   Block(1)  = a single (n^2+n)-port switch;
///   Block(k)  = P(k-1) bottom switches of radix n+n^2 (n ports down,
///               one uplink to each of n^2 sub-blocks) over n^2 copies of
///               Block(k-1);  P(k) = n * P(k-1), so P(k) = n^(k+1) + n^k.
///
/// The L-level fabric hangs one leaf off every Block(L) port.  Routing
/// applies the Theorem 3 (i, j) rule at every level: a connection
/// entering bottom switch q with local index i toward local index j uses
/// sub-block i*n + j.  Every channel then carries one source (uplinks) or
/// one destination (downlinks), so the Lemma 1 audit over the fabric's
/// walked paths — which this class exposes as certify() — proves the
/// fabric nonblocking.
///
/// The fabric is its own `routing::NextHop`: the engines run it and the
/// audit walks it directly, with no per-pair table.  Its leaf index space
/// IS its terminal vertex id space (leaves are vertices 0..P-1), so
/// packets address it directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nbclos/core/designer.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos {

class MultiLevelFabric final : public routing::NextHop {
 public:
  /// \pre n >= 2, levels >= 2; total ports capped at 2^20.
  MultiLevelFabric(std::uint32_t n, std::uint32_t levels);

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t levels() const noexcept { return levels_; }
  [[nodiscard]] const Network& network() const noexcept override {
    return net_;
  }
  [[nodiscard]] std::uint32_t port_count() const noexcept { return ports_; }
  [[nodiscard]] std::uint64_t switch_count() const noexcept {
    return switch_count_;
  }
  /// The closed-form cost model this construction must match.
  [[nodiscard]] RecursiveDesign design() const {
    return recursive_design(n_, levels_);
  }

  /// Channel path for an SD pair over leaf indices: the walk of
  /// next_channel_from.  Fixed per SD pair (single-path deterministic,
  /// the recursive Theorem 3 rule).
  [[nodiscard]] ChannelPath route(SDPair sd) const;

  /// The channel of the pair's path leaving `vertex`: a descent of the
  /// block recursion in O(levels) steps that allocates nothing and
  /// shares no state, so the fabric is safe from every shard worker.
  /// fault::kNoRoute for a self pair or a vertex off the pair's path.
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t src,
      std::uint32_t dst) const override;
  [[nodiscard]] std::size_t bytes() const override { return 0; }
  [[nodiscard]] std::string name() const override {
    return "multilevel-thm3";
  }

  /// Lemma 1 audit over all P(P-1) walked SD pairs: a proof that this
  /// instance is nonblocking.
  [[nodiscard]] bool certify() const;

  /// Statistical cross-check on random permutations.
  [[nodiscard]] bool verify_random(std::uint64_t trials,
                                   std::uint64_t seed) const;

 private:
  struct Block {
    std::uint32_t level = 1;
    std::uint32_t ports = 0;
    std::uint32_t switch_vertex = 0;              ///< level 1 only
    std::vector<std::uint32_t> bottom;            ///< level >= 2
    std::vector<std::unique_ptr<Block>> subs;     ///< n^2 of them
    std::vector<std::vector<std::uint32_t>> up;   ///< [t][q] channel
    std::vector<std::vector<std::uint32_t>> down; ///< [t][q] channel

    /// The vertex an external port wires to.
    [[nodiscard]] std::uint32_t attach(std::uint32_t port,
                                       std::uint32_t n) const;
  };

  std::unique_ptr<Block> build_block(std::uint32_t level);

  std::uint32_t n_;
  std::uint32_t levels_;
  std::uint32_t ports_ = 0;
  std::uint64_t switch_count_ = 0;
  Network net_;
  std::unique_ptr<Block> root_;
  std::vector<std::uint32_t> leaf_up_;    ///< channel leaf -> attach
  std::vector<std::uint32_t> leaf_down_;  ///< channel attach -> leaf
};

}  // namespace nbclos
