#include "nbclos/topology/fat_tree.hpp"

#include <gtest/gtest.h>

#include "nbclos/util/prng.hpp"

namespace nbclos {
namespace {

FoldedClos make(std::uint32_t n, std::uint32_t m, std::uint32_t r) {
  return FoldedClos(FtreeParams{n, m, r});
}

TEST(FoldedClos, CountsMatchParameters) {
  const auto ft = make(4, 16, 9);
  EXPECT_EQ(ft.leaf_count(), 36U);
  EXPECT_EQ(ft.bottom_count(), 9U);
  EXPECT_EQ(ft.top_count(), 16U);
  EXPECT_EQ(ft.switch_count(), 25U);
  EXPECT_EQ(ft.bottom_radix(), 20U);
  EXPECT_EQ(ft.top_radix(), 9U);
  EXPECT_EQ(ft.link_count(), 2 * 36U + 2 * 9U * 16U);
}

TEST(FoldedClos, LeafIndexRoundTrips) {
  const auto ft = make(3, 4, 5);
  for (std::uint32_t v = 0; v < 5; ++v) {
    for (std::uint32_t k = 0; k < 3; ++k) {
      const auto leaf = ft.leaf(BottomId{v}, k);
      EXPECT_EQ(ft.switch_of(leaf).value, v);
      EXPECT_EQ(ft.local_of(leaf), k);
    }
  }
}

TEST(FoldedClos, RejectsInvalidParameters) {
  EXPECT_THROW(make(0, 1, 2), precondition_error);
  EXPECT_THROW(make(1, 0, 2), precondition_error);
  EXPECT_THROW(make(1, 1, 1), precondition_error);
}

TEST(FoldedClos, RejectsOutOfRangeIds) {
  // Per-pair accessor bounds checks are NBCLOS_DEBUG_CHECK: present in
  // Debug builds, compiled out of Release hot paths.
  if (!kDebugChecksEnabled) {
    GTEST_SKIP() << "debug checks compiled out (NDEBUG build)";
  }
  const auto ft = make(2, 3, 4);
  EXPECT_THROW((void)ft.leaf(BottomId{4}, 0), precondition_error);
  EXPECT_THROW((void)ft.leaf(BottomId{0}, 2), precondition_error);
  EXPECT_THROW((void)ft.switch_of(LeafId{8}), precondition_error);
  EXPECT_THROW((void)ft.up_link(BottomId{0}, TopId{3}), precondition_error);
  EXPECT_THROW((void)ft.down_link(TopId{0}, BottomId{4}), precondition_error);
}

TEST(FoldedClos, StructuralValidation) {
  for (const auto& [n, m, r] :
       {std::tuple{1U, 1U, 2U}, {2U, 4U, 5U}, {3U, 9U, 12U}, {4U, 16U, 20U}}) {
    EXPECT_NO_THROW(make(n, m, r).validate()) << n << " " << m << " " << r;
  }
}

TEST(FoldedClos, LinkKindsPartitionIdSpace) {
  const auto ft = make(2, 3, 4);
  std::size_t counts[4] = {0, 0, 0, 0};
  for (std::uint32_t l = 0; l < ft.link_count(); ++l) {
    ++counts[static_cast<std::size_t>(ft.kind_of(LinkId{l}))];
  }
  EXPECT_EQ(counts[static_cast<std::size_t>(LinkKind::kLeafUp)], 8U);
  EXPECT_EQ(counts[static_cast<std::size_t>(LinkKind::kUp)], 12U);
  EXPECT_EQ(counts[static_cast<std::size_t>(LinkKind::kDown)], 12U);
  EXPECT_EQ(counts[static_cast<std::size_t>(LinkKind::kLeafDown)], 8U);
}

TEST(FoldedClos, CrossPathLinksAreOrdered) {
  const auto ft = make(2, 3, 4);
  const SDPair sd{ft.leaf(BottomId{0}, 1), ft.leaf(BottomId{2}, 0)};
  const auto path = ft.cross_path(sd, TopId{1});
  const auto links = ft.links_of(path);
  ASSERT_EQ(links.size(), 4U);
  EXPECT_EQ(links[0], ft.leaf_up_link(sd.src));
  EXPECT_EQ(links[1], ft.up_link(BottomId{0}, TopId{1}));
  EXPECT_EQ(links[2], ft.down_link(TopId{1}, BottomId{2}));
  EXPECT_EQ(links[3], ft.leaf_down_link(sd.dst));
}

TEST(FoldedClos, DirectPathSkipsTopLevel) {
  const auto ft = make(3, 2, 3);
  const SDPair sd{ft.leaf(BottomId{1}, 0), ft.leaf(BottomId{1}, 2)};
  EXPECT_FALSE(ft.needs_top(sd));
  const auto path = ft.direct_path(sd);
  const auto links = ft.links_of(path);
  ASSERT_EQ(links.size(), 2U);
  EXPECT_EQ(ft.kind_of(links[0]), LinkKind::kLeafUp);
  EXPECT_EQ(ft.kind_of(links[1]), LinkKind::kLeafDown);
}

TEST(FoldedClos, PathConstructorsEnforcePreconditions) {
  if (!kDebugChecksEnabled) {
    GTEST_SKIP() << "debug checks compiled out (NDEBUG build)";
  }
  const auto ft = make(2, 2, 3);
  const SDPair cross{ft.leaf(BottomId{0}, 0), ft.leaf(BottomId{1}, 0)};
  const SDPair local{ft.leaf(BottomId{0}, 0), ft.leaf(BottomId{0}, 1)};
  EXPECT_THROW((void)ft.direct_path(cross), precondition_error);
  EXPECT_THROW((void)ft.cross_path(local, TopId{0}), precondition_error);
  EXPECT_THROW((void)ft.cross_path(cross, TopId{2}), precondition_error);
  const SDPair self{ft.leaf(BottomId{0}, 0), ft.leaf(BottomId{0}, 0)};
  EXPECT_THROW((void)ft.direct_path(self), precondition_error);
}

TEST(FoldedClos, CrossPairCountFormula) {
  const auto ft = make(3, 9, 7);
  // r(r-1)n^2 = 7*6*9 = 378.
  EXPECT_EQ(ft.cross_pair_count(), 378U);
}

/// switch_of / local_of (a multiply-high by a stored reciprocal of n)
/// must equal leaf / n and leaf % n exactly.
void expect_division_exact(const FoldedClos& ft, std::uint32_t leaf) {
  const std::uint32_t n = ft.n();
  ASSERT_EQ(ft.switch_of(LeafId{leaf}).value, leaf / n)
      << "leaf " << leaf << ", n " << n;
  ASSERT_EQ(ft.local_of(LeafId{leaf}), leaf % n)
      << "leaf " << leaf << ", n " << n;
}

TEST(FoldedClos, ReciprocalDivisionMatchesEveryLeafOfSmallShapes) {
  for (std::uint32_t n = 1; n <= 17; ++n) {
    for (std::uint32_t r = 2; r <= 9; ++r) {
      const auto ft = make(n, 1, r);
      for (std::uint32_t leaf = 0; leaf < ft.leaf_count(); ++leaf) {
        expect_division_exact(ft, leaf);
      }
    }
  }
}

TEST(FoldedClos, ReciprocalDivisionMatchesAtBoundaryIds) {
  for (const std::uint32_t n : {1U, 2U, 3U, 7U, 8U, 63U, 64U, 255U, 65535U}) {
    for (const std::uint32_t r : {2U, 3U, 1000U}) {
      const auto ft = make(n, 1, r);
      for (const std::uint32_t leaf :
           {0U, n - 1, n, 2 * n - 1, ft.leaf_count() - 1}) {
        expect_division_exact(ft, leaf);
      }
    }
  }
}

TEST(FoldedClos, ReciprocalDivisionMatchesNearTheIdLimit) {
  // Shapes whose 2*r*(n+m) link ids just fit in 32 bits, so leaf ids
  // reach 2^30 to 2^31.  Constructing a FoldedClos allocates nothing.
  const FtreeParams shapes[] = {
      {1, 1, 1073741823},   // n = 1: no 64-bit reciprocal exists
      {2, 1, 715827882},    {3, 1, 536870911},
      {65535, 1, 32767},    {65521, 7, 32763},
      {1073741822, 1, 2},   {715827880, 2, 3},
  };
  Xoshiro256 rng(20);
  for (const auto& params : shapes) {
    const FoldedClos ft(params);
    ASSERT_GT(ft.link_count(), 0xF0000000U);
    const std::uint32_t leafs = ft.leaf_count();
    const std::uint32_t n = ft.n();
    for (const std::uint32_t leaf :
         {0U, n - 1, n, leafs - n - 1, leafs - n, leafs - 2, leafs - 1}) {
      expect_division_exact(ft, leaf);
    }
    for (int i = 0; i < 20000; ++i) {
      expect_division_exact(ft, static_cast<std::uint32_t>(rng.below(leafs)));
    }
  }
}

TEST(FoldedClos, ReciprocalDivisionMatchesRandomDivisors) {
  Xoshiro256 rng(21);
  for (int i = 0; i < 2000; ++i) {
    const auto n = static_cast<std::uint32_t>(1 + rng.below(1U << 20));
    const auto r = static_cast<std::uint32_t>(2 + rng.below(1000));
    const auto ft = make(n, 1, r);
    for (int j = 0; j < 50; ++j) {
      expect_division_exact(
          ft, static_cast<std::uint32_t>(rng.below(ft.leaf_count())));
    }
    expect_division_exact(ft, ft.leaf_count() - 1);
  }
}

class FoldedClosParamTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(FoldedClosParamTest, ValidateAndCountInvariants) {
  const auto [n, m, r] = GetParam();
  const auto ft = make(n, m, r);
  ft.validate();
  EXPECT_EQ(ft.leaf_count(), n * r);
  EXPECT_EQ(ft.cross_pair_count(),
            std::uint64_t{r} * (r - 1) * n * n);
  // Every leaf's up and down links have the right endpoints implied by
  // kind classification.
  for (std::uint32_t leaf = 0; leaf < ft.leaf_count(); ++leaf) {
    EXPECT_EQ(ft.kind_of(ft.leaf_up_link(LeafId{leaf})), LinkKind::kLeafUp);
    EXPECT_EQ(ft.kind_of(ft.leaf_down_link(LeafId{leaf})),
              LinkKind::kLeafDown);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FoldedClosParamTest,
    ::testing::Values(std::tuple{1U, 1U, 2U}, std::tuple{2U, 4U, 6U},
                      std::tuple{3U, 9U, 12U}, std::tuple{4U, 16U, 20U},
                      std::tuple{2U, 7U, 3U}, std::tuple{5U, 25U, 30U}));

}  // namespace
}  // namespace nbclos
