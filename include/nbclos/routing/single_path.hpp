/// \file single_path.hpp
/// \brief The single-path deterministic routing interface (paper §IV-A).
///
/// A single-path deterministic routing assigns one fixed path to every SD
/// pair, independent of the traffic pattern.  In ftree(n+m, r) a path is
/// fully determined by the top-level switch it crosses (or by being
/// direct), so implementations only choose a TopId per SD pair.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nbclos/topology/fat_tree.hpp"

namespace nbclos {

class SinglePathRouting {
 public:
  explicit SinglePathRouting(const FoldedClos& ftree) : ftree_(&ftree) {}
  virtual ~SinglePathRouting() = default;

  SinglePathRouting(const SinglePathRouting&) = delete;
  SinglePathRouting& operator=(const SinglePathRouting&) = delete;

  [[nodiscard]] const FoldedClos& ftree() const noexcept { return *ftree_; }

  /// Human-readable algorithm name (used in experiment output).
  [[nodiscard]] virtual std::string name() const = 0;

  /// The fixed path for an SD pair.  \pre sd.src != sd.dst.
  [[nodiscard]] FtreePath route(SDPair sd) const {
    NBCLOS_REQUIRE(sd.src != sd.dst, "self-loop SD pair");
    if (!ftree_->needs_top(sd)) return ftree_->direct_path(sd);
    const TopId top = top_for(sd);
    return ftree_->cross_path(sd, top);
  }

  /// Allocation-free route: writes the fixed path into caller scratch.
  /// The verifier scores every pair of a sampled permutation through
  /// this (PermutationLoad), and RouteCache::materialize every pair of
  /// the fabric.  \pre sd.src != sd.dst.
  void route_into(SDPair sd, FtreePath& out) const {
    NBCLOS_DEBUG_CHECK(sd.src != sd.dst, "self-loop SD pair");
    if (!ftree_->needs_top(sd)) {
      out = ftree_->direct_path(sd);
      return;
    }
    out = ftree_->cross_path(sd, top_for(sd));
  }

  /// Routes for a whole communication pattern, in input order.
  [[nodiscard]] std::vector<FtreePath> route_all(
      const std::vector<SDPair>& pattern) const {
    std::vector<FtreePath> paths;
    paths.reserve(pattern.size());
    for (const auto sd : pattern) paths.push_back(route(sd));
    return paths;
  }

 protected:
  /// Choose the top-level switch for a cross-switch SD pair.
  [[nodiscard]] virtual TopId top_for(SDPair sd) const = 0;

 private:
  const FoldedClos* ftree_;
};

}  // namespace nbclos
