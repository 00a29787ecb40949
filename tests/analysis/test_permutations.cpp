#include "nbclos/analysis/permutations.hpp"

#include <gtest/gtest.h>

#include <set>

#include "nbclos/util/check.hpp"

namespace nbclos {
namespace {

TEST(Permutations, ValidateAcceptsLegalPatterns) {
  EXPECT_NO_THROW(validate_permutation({{LeafId{0}, LeafId{1}}}, 4));
  EXPECT_NO_THROW(validate_permutation({}, 4));
  EXPECT_NO_THROW(validate_permutation(
      {{LeafId{0}, LeafId{1}}, {LeafId{1}, LeafId{0}}}, 2));
}

TEST(Permutations, ValidateRejectsIllegalPatterns) {
  EXPECT_THROW(validate_permutation({{LeafId{0}, LeafId{0}}}, 4),
               precondition_error);
  EXPECT_THROW(validate_permutation({{LeafId{0}, LeafId{4}}}, 4),
               precondition_error);
  EXPECT_THROW(validate_permutation(
                   {{LeafId{0}, LeafId{1}}, {LeafId{0}, LeafId{2}}}, 4),
               precondition_error);
  EXPECT_THROW(validate_permutation(
                   {{LeafId{0}, LeafId{2}}, {LeafId{1}, LeafId{2}}}, 4),
               precondition_error);
}

TEST(Permutations, RandomPermutationIsValidAndNearFull) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto p = random_permutation(20, rng);
    validate_permutation(p, 20);
    EXPECT_GE(p.size(), 15U);  // at most a few fixed points dropped
  }
}

TEST(Permutations, RandomPermutationCoversAllTargetsOverTrials) {
  Xoshiro256 rng(2);
  std::set<std::uint32_t> seen_dsts;
  for (int trial = 0; trial < 50; ++trial) {
    for (const auto sd : random_permutation(6, rng)) {
      seen_dsts.insert(sd.dst.value);
    }
  }
  EXPECT_EQ(seen_dsts.size(), 6U);
}

TEST(Permutations, PartialPermutationRespectsCount) {
  Xoshiro256 rng(3);
  const auto p = random_partial_permutation(30, 10, rng);
  validate_permutation(p, 30);
  EXPECT_LE(p.size(), 10U);
  EXPECT_GE(p.size(), 8U);
  EXPECT_THROW((void)random_partial_permutation(5, 6, rng),
               precondition_error);
}

TEST(Permutations, ShiftHasFullSizeAndCorrectTargets) {
  const auto p = shift_permutation(8, 3);
  validate_permutation(p, 8);
  ASSERT_EQ(p.size(), 8U);
  for (const auto sd : p) {
    EXPECT_EQ(sd.dst.value, (sd.src.value + 3) % 8);
  }
  EXPECT_THROW((void)shift_permutation(8, 0), precondition_error);
  EXPECT_THROW((void)shift_permutation(8, 8), precondition_error);
}

TEST(Permutations, ReverseDropsMiddleFixedPoint) {
  const auto odd = reverse_permutation(7);
  validate_permutation(odd, 7);
  EXPECT_EQ(odd.size(), 6U);  // leaf 3 maps to itself
  const auto even = reverse_permutation(8);
  EXPECT_EQ(even.size(), 8U);
}

TEST(Permutations, BitReversalInvolution) {
  const auto p = bit_reversal_permutation(16);
  validate_permutation(p, 16);
  // Bit reversal is an involution: src->dst implies dst->src.
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const auto sd : p) pairs.insert({sd.src.value, sd.dst.value});
  for (const auto& [s, d] : pairs) {
    EXPECT_TRUE(pairs.contains({d, s}));
  }
  EXPECT_THROW((void)bit_reversal_permutation(12), precondition_error);
}

TEST(Permutations, ButterflyFlipsOneBit) {
  const auto p = butterfly_permutation(8, 1);
  validate_permutation(p, 8);
  ASSERT_EQ(p.size(), 8U);
  for (const auto sd : p) {
    EXPECT_EQ(sd.src.value ^ sd.dst.value, 2U);
  }
  EXPECT_THROW((void)butterfly_permutation(8, 3), precondition_error);
}

TEST(Permutations, TornadoCrossesSwitches) {
  const auto p = tornado_permutation(3, 6);
  validate_permutation(p, 18);
  EXPECT_EQ(p.size(), 18U);
  for (const auto sd : p) {
    EXPECT_NE(sd.src.value / 3, sd.dst.value / 3);
    EXPECT_EQ(sd.dst.value / 3, (sd.src.value / 3 + 3) % 6);
  }
}

TEST(Permutations, TornadoDegeneratesGracefully) {
  // r = 2: half = 1, neighbor switch.
  const auto p = tornado_permutation(2, 2);
  validate_permutation(p, 4);
  EXPECT_EQ(p.size(), 4U);
}

TEST(Permutations, NeighborFunnelPairsWholeSwitches) {
  const auto p = neighbor_funnel_permutation(2, 4);
  validate_permutation(p, 8);
  EXPECT_EQ(p.size(), 8U);
  for (const auto sd : p) {
    EXPECT_EQ(sd.dst.value / 2, (sd.src.value / 2 + 1) % 4);
    EXPECT_EQ(sd.dst.value % 2, 1 - sd.src.value % 2);
  }
}

TEST(Permutations, ExhaustiveEnumerationCount) {
  std::uint64_t seen = 0;
  const auto visited = for_each_permutation(4, [&](const Permutation& p) {
    validate_permutation(p, 4);
    ++seen;
  });
  EXPECT_EQ(visited, 24U);
  EXPECT_EQ(seen, 24U);
  EXPECT_THROW(for_each_permutation(11, [](const Permutation&) {}),
               precondition_error);
}

TEST(Permutations, FactorialValues) {
  EXPECT_EQ(factorial(0), 1U);
  EXPECT_EQ(factorial(1), 1U);
  EXPECT_EQ(factorial(5), 120U);
  EXPECT_EQ(factorial(10), 3628800U);
  EXPECT_EQ(factorial(20), 2432902008176640000ULL);
  EXPECT_THROW((void)factorial(21), precondition_error);
}

TEST(Permutations, UnrankRankRoundTrip) {
  for (const std::uint32_t leafs : {1U, 2U, 5U, 7U}) {
    for (std::uint64_t rank = 0; rank < factorial(leafs); ++rank) {
      const auto target = unrank_targets(leafs, rank);
      EXPECT_EQ(rank_of_targets(target), rank) << "leafs=" << leafs;
    }
  }
}

TEST(Permutations, UnrankMatchesLexicographicOrder) {
  // Rank order == std::next_permutation order over target vectors.
  std::vector<std::uint32_t> target{0, 1, 2, 3, 4};
  std::uint64_t rank = 0;
  do {
    EXPECT_EQ(unrank_targets(5, rank), target);
    ++rank;
  } while (std::next_permutation(target.begin(), target.end()));
  EXPECT_EQ(rank, 120U);
  EXPECT_THROW((void)unrank_targets(5, 120), precondition_error);
}

TEST(Permutations, RangeEnumerationCoversShardsExactly) {
  // Splitting [0, 6!) into uneven shards visits each permutation once, in
  // the same order as the full walk.
  std::vector<std::uint64_t> full_ranks;
  for_each_permutation_in_range(6, 0, factorial(6),
                                [&](const Permutation& p) {
                                  full_ranks.push_back(p.size());
                                  return true;
                                });
  ASSERT_EQ(full_ranks.size(), 720U);
  std::vector<std::uint64_t> sharded;
  for (const auto& [begin, end] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {0, 1}, {1, 100}, {100, 477}, {477, 720}}) {
    const auto visited = for_each_permutation_in_range(
        6, begin, end, [&](const Permutation& p) {
          sharded.push_back(p.size());
          return true;
        });
    EXPECT_EQ(visited, end - begin);
  }
  EXPECT_EQ(sharded, full_ranks);
}

TEST(Permutations, RangeEnumerationStopsEarlyAndCountsInclusively) {
  std::uint64_t seen = 0;
  const auto visited = for_each_permutation_in_range(
      5, 10, 120, [&](const Permutation&) { return ++seen < 7; });
  EXPECT_EQ(seen, 7U);
  EXPECT_EQ(visited, 7U);  // includes the permutation that said stop
}

TEST(Permutations, RangeEnumerationValidatesArguments) {
  EXPECT_THROW(for_each_permutation_in_range(
                   5, 10, 121, [](const Permutation&) { return true; }),
               precondition_error);
  EXPECT_THROW(for_each_permutation_in_range(
                   5, 8, 7, [](const Permutation&) { return true; }),
               precondition_error);
}

TEST(Permutations, ExhaustiveEnumerationIncludesIdentityAsEmpty) {
  bool saw_empty = false;
  for_each_permutation(3, [&](const Permutation& p) {
    if (p.empty()) saw_empty = true;
  });
  EXPECT_TRUE(saw_empty);  // the identity drops all fixed points
}

}  // namespace
}  // namespace nbclos
