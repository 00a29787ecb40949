#include "nbclos/analysis/permutations.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "nbclos/util/check.hpp"

namespace nbclos {

void validate_permutation(const Permutation& pattern,
                          std::uint32_t leaf_count) {
  std::unordered_set<std::uint32_t> sources;
  std::unordered_set<std::uint32_t> destinations;
  for (const auto sd : pattern) {
    NBCLOS_REQUIRE(sd.src.value < leaf_count && sd.dst.value < leaf_count,
                   "leaf id out of range");
    NBCLOS_REQUIRE(sd.src != sd.dst, "self-loop SD pair");
    NBCLOS_REQUIRE(sources.insert(sd.src.value).second,
                   "source used more than once");
    NBCLOS_REQUIRE(destinations.insert(sd.dst.value).second,
                   "destination used more than once");
  }
}

void permutation_from_targets(const std::vector<std::uint32_t>& target,
                              Permutation& out) {
  // Write every pair but keep only the non-fixed points: no per-pair
  // branch or capacity check on the samplers' hot path.
  const auto leafs = static_cast<std::uint32_t>(target.size());
  out.resize(leafs);
  SDPair* const pairs = out.data();
  std::size_t count = 0;
  for (std::uint32_t s = 0; s < leafs; ++s) {
    const std::uint32_t d = target[s];
    pairs[count] = {LeafId{s}, LeafId{d}};
    count += d != s ? 1U : 0U;
  }
  out.resize(count);
}

Permutation permutation_from_targets(const std::vector<std::uint32_t>& target) {
  Permutation out;
  permutation_from_targets(target, out);
  return out;
}

Permutation random_permutation(std::uint32_t leaf_count, Xoshiro256& rng) {
  std::vector<std::uint32_t> target;
  random_targets(leaf_count, rng, target);
  return permutation_from_targets(target);
}

void random_targets(std::uint32_t leaf_count, Xoshiro256& rng,
                    std::vector<std::uint32_t>& target) {
  target.resize(leaf_count);
  std::iota(target.begin(), target.end(), 0U);
  shuffle(target.begin(), target.end(), rng);
}

Permutation random_partial_permutation(std::uint32_t leaf_count,
                                       std::uint32_t pairs, Xoshiro256& rng) {
  NBCLOS_REQUIRE(pairs <= leaf_count, "more pairs than leaves");
  std::vector<std::uint32_t> sources(leaf_count);
  std::vector<std::uint32_t> dests(leaf_count);
  std::iota(sources.begin(), sources.end(), 0U);
  std::iota(dests.begin(), dests.end(), 0U);
  shuffle(sources.begin(), sources.end(), rng);
  shuffle(dests.begin(), dests.end(), rng);
  Permutation out;
  out.reserve(pairs);
  for (std::uint32_t i = 0; i < pairs; ++i) {
    if (sources[i] != dests[i]) {
      out.push_back({LeafId{sources[i]}, LeafId{dests[i]}});
    }
  }
  return out;
}

Permutation shift_permutation(std::uint32_t leaf_count, std::uint32_t offset) {
  NBCLOS_REQUIRE(offset > 0 && offset < leaf_count, "invalid shift offset");
  Permutation out;
  out.reserve(leaf_count);
  for (std::uint32_t s = 0; s < leaf_count; ++s) {
    out.push_back({LeafId{s}, LeafId{(s + offset) % leaf_count}});
  }
  return out;
}

Permutation reverse_permutation(std::uint32_t leaf_count) {
  Permutation out;
  out.reserve(leaf_count);
  for (std::uint32_t s = 0; s < leaf_count; ++s) {
    const std::uint32_t d = leaf_count - 1 - s;
    if (d != s) out.push_back({LeafId{s}, LeafId{d}});
  }
  return out;
}

Permutation bit_reversal_permutation(std::uint32_t leaf_count) {
  NBCLOS_REQUIRE(leaf_count >= 2 && (leaf_count & (leaf_count - 1)) == 0,
                 "bit reversal needs a power-of-two leaf count");
  std::uint32_t bits = 0;
  while ((1U << bits) < leaf_count) ++bits;
  Permutation out;
  for (std::uint32_t s = 0; s < leaf_count; ++s) {
    std::uint32_t d = 0;
    for (std::uint32_t b = 0; b < bits; ++b) {
      if (s & (1U << b)) d |= 1U << (bits - 1 - b);
    }
    if (d != s) out.push_back({LeafId{s}, LeafId{d}});
  }
  return out;
}

Permutation butterfly_permutation(std::uint32_t leaf_count,
                                  std::uint32_t stage) {
  NBCLOS_REQUIRE(leaf_count >= 2 && (leaf_count & (leaf_count - 1)) == 0,
                 "butterfly needs a power-of-two leaf count");
  NBCLOS_REQUIRE((1U << stage) < leaf_count, "stage out of range");
  Permutation out;
  out.reserve(leaf_count);
  for (std::uint32_t s = 0; s < leaf_count; ++s) {
    out.push_back({LeafId{s}, LeafId{s ^ (1U << stage)}});
  }
  return out;
}

Permutation tornado_permutation(std::uint32_t n, std::uint32_t r) {
  NBCLOS_REQUIRE(n >= 1 && r >= 2, "invalid topology parameters");
  const std::uint32_t half = r / 2 == 0 ? 1 : r / 2;
  Permutation out;
  out.reserve(std::size_t{n} * r);
  for (std::uint32_t v = 0; v < r; ++v) {
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint32_t w = (v + half) % r;
      if (w == v) continue;
      out.push_back({LeafId{v * n + k}, LeafId{w * n + k}});
    }
  }
  return out;
}

Permutation neighbor_funnel_permutation(std::uint32_t n, std::uint32_t r) {
  NBCLOS_REQUIRE(n >= 1 && r >= 2, "invalid topology parameters");
  Permutation out;
  out.reserve(std::size_t{n} * r);
  for (std::uint32_t v = 0; v < r; ++v) {
    const std::uint32_t w = (v + 1) % r;
    for (std::uint32_t k = 0; k < n; ++k) {
      out.push_back({LeafId{v * n + k}, LeafId{w * n + (n - 1 - k)}});
    }
  }
  return out;
}

std::uint64_t factorial(std::uint32_t k) {
  NBCLOS_REQUIRE(k <= 20, "k! overflows uint64 beyond 20");
  std::uint64_t f = 1;
  for (std::uint32_t i = 2; i <= k; ++i) f *= i;
  return f;
}

std::vector<std::uint32_t> unrank_targets(std::uint32_t leaf_count,
                                          std::uint64_t rank) {
  NBCLOS_REQUIRE(leaf_count >= 1 && leaf_count <= 20,
                 "unrank supports 1..20 leaves");
  NBCLOS_REQUIRE(rank < factorial(leaf_count), "rank out of range");
  // Factorial number system: digit i of `rank` (base (leaf_count-1-i)!)
  // selects the i-th smallest unused value.
  std::vector<std::uint32_t> pool(leaf_count);
  std::iota(pool.begin(), pool.end(), 0U);
  std::vector<std::uint32_t> target;
  target.reserve(leaf_count);
  std::uint64_t radix = factorial(leaf_count);
  for (std::uint32_t i = 0; i < leaf_count; ++i) {
    radix /= leaf_count - i;
    const auto digit = static_cast<std::uint32_t>(rank / radix);
    rank %= radix;
    target.push_back(pool[digit]);
    pool.erase(pool.begin() + digit);
  }
  return target;
}

std::uint64_t rank_of_targets(const std::vector<std::uint32_t>& target) {
  const auto leaf_count = static_cast<std::uint32_t>(target.size());
  NBCLOS_REQUIRE(leaf_count >= 1 && leaf_count <= 20,
                 "rank supports 1..20 leaves");
  std::uint64_t rank = 0;
  std::uint64_t radix = factorial(leaf_count);
  for (std::uint32_t i = 0; i < leaf_count; ++i) {
    radix /= leaf_count - i;
    std::uint32_t smaller = 0;  // unused values below target[i]
    for (std::uint32_t j = i + 1; j < leaf_count; ++j) {
      if (target[j] < target[i]) ++smaller;
    }
    rank += smaller * radix;
  }
  return rank;
}

std::uint64_t for_each_permutation(
    std::uint32_t leaf_count,
    const std::function<void(const Permutation&)>& fn) {
  NBCLOS_REQUIRE(leaf_count >= 1, "need at least one leaf");
  NBCLOS_REQUIRE(leaf_count <= 10, "exhaustive enumeration capped at 10!");
  return for_each_permutation_in_range(leaf_count, 0, factorial(leaf_count),
                                       [&fn](const Permutation& pattern) {
                                         fn(pattern);
                                         return true;
                                       });
}

std::uint64_t for_each_target_in_range(
    std::uint32_t leaf_count, std::uint64_t begin_rank, std::uint64_t end_rank,
    const std::function<bool(const std::vector<std::uint32_t>&)>& fn) {
  NBCLOS_REQUIRE(leaf_count >= 1, "need at least one leaf");
  NBCLOS_REQUIRE(begin_rank <= end_rank && end_rank <= factorial(leaf_count),
                 "invalid rank range");
  if (begin_rank == end_rank) return 0;
  // std::next_permutation walks lexicographic order, which is exactly
  // rank order, so one unrank seeds the whole range.
  std::vector<std::uint32_t> target = unrank_targets(leaf_count, begin_rank);
  std::uint64_t visited = 0;
  for (std::uint64_t rank = begin_rank; rank < end_rank; ++rank) {
    ++visited;
    if (!fn(target)) break;
    std::next_permutation(target.begin(), target.end());
  }
  return visited;
}

std::uint64_t for_each_permutation_in_range(
    std::uint32_t leaf_count, std::uint64_t begin_rank, std::uint64_t end_rank,
    const std::function<bool(const Permutation&)>& fn) {
  Permutation pattern;
  return for_each_target_in_range(
      leaf_count, begin_rank, end_rank,
      [&](const std::vector<std::uint32_t>& target) {
        permutation_from_targets(target, pattern);
        return fn(pattern);
      });
}

}  // namespace nbclos
