/// \file blocking.hpp
/// \brief Blocking-probability estimation for routings that are *not*
///        nonblocking — quantifying how far a scheme is from the paper's
///        ideal, in the spirit of the prior work the paper cites
///        ([6], [9], [15]).
#pragma once

#include <cstdint>

#include "nbclos/analysis/verifier.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/util/prng.hpp"

namespace nbclos {

struct BlockingEstimate {
  std::uint64_t trials = 0;
  std::uint64_t blocked = 0;           ///< permutations with any contention
  double blocking_probability = 0.0;   ///< blocked / trials
  double mean_colliding_pairs = 0.0;   ///< mean collisions per permutation
  double mean_max_link_load = 0.0;     ///< mean of max paths per link
  double ci95_half_width = 0.0;        ///< for blocking_probability
};

/// Running sums over a run of sampled permutations: the state one chunk
/// of estimate_blocking_parallel keeps.  Added in a fixed order, the
/// sums give the same estimate for any thread count.
struct BlockingSums {
  std::uint64_t trials = 0;
  std::uint64_t blocked = 0;
  double colliding_pairs = 0.0;
  double max_link_load = 0.0;

  BlockingSums& operator+=(const BlockingSums& other);
  /// The estimate these sums describe.  \pre trials > 0.
  [[nodiscard]] BlockingEstimate estimate() const;
};

/// Score `trials` random full permutations drawn from `rng` and sum their
/// contention: the body of estimate_blocking and of every chunk of
/// estimate_blocking_parallel.
[[nodiscard]] BlockingSums sample_blocking(const FoldedClos& ftree,
                                           PatternScorer& scorer,
                                           std::uint64_t trials,
                                           Xoshiro256& rng);

/// Sample `trials` random full permutations and measure contention.
[[nodiscard]] BlockingEstimate estimate_blocking(const FoldedClos& ftree,
                                                 const PatternRouter& router,
                                                 std::uint64_t trials,
                                                 Xoshiro256& rng);

}  // namespace nbclos
