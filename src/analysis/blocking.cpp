#include "nbclos/analysis/blocking.hpp"

#include <cmath>
#include <vector>

namespace nbclos {

BlockingSums& BlockingSums::operator+=(const BlockingSums& other) {
  trials += other.trials;
  blocked += other.blocked;
  colliding_pairs += other.colliding_pairs;
  max_link_load += other.max_link_load;
  return *this;
}

BlockingEstimate BlockingSums::estimate() const {
  NBCLOS_REQUIRE(trials > 0, "need at least one trial");
  BlockingEstimate est;
  est.trials = trials;
  est.blocked = blocked;
  const auto n = static_cast<double>(trials);
  est.blocking_probability = static_cast<double>(blocked) / n;
  est.mean_colliding_pairs = colliding_pairs / n;
  est.mean_max_link_load = max_link_load / n;
  const double p = est.blocking_probability;
  est.ci95_half_width = 1.96 * std::sqrt(p * (1.0 - p) / n);
  return est;
}

BlockingSums sample_blocking(const FoldedClos& ftree,
                             const PatternRouter& router, std::uint64_t trials,
                             Xoshiro256& rng) {
  BlockingSums sums;
  sums.trials = trials;
  PatternScorer scorer(ftree, router);
  std::vector<std::uint32_t> target;
  Permutation pattern;
  for (std::uint64_t t = 0; t < trials; ++t) {
    random_permutation(ftree.leaf_count(), rng, target, pattern);
    const auto& load = scorer.score(pattern);
    if (load.colliding_pairs() > 0) ++sums.blocked;
    sums.colliding_pairs += static_cast<double>(load.colliding_pairs());
    sums.max_link_load += static_cast<double>(load.max_load());
  }
  return sums;
}

BlockingEstimate estimate_blocking(const FoldedClos& ftree,
                                   const PatternRouter& router,
                                   std::uint64_t trials, Xoshiro256& rng) {
  return sample_blocking(ftree, router, trials, rng).estimate();
}

}  // namespace nbclos
