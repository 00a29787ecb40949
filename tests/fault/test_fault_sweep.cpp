#include "nbclos/fault/sweep.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nbclos/util/check.hpp"

namespace nbclos::analysis {
namespace {

FaultSweepConfig small_config() {
  FaultSweepConfig config;
  config.n = 2;
  config.r = 4;
  config.max_failures = 8;
  config.failure_step = 2;
  config.permutations_per_level = 16;
  config.seed = 77;
  config.chunks = 4;
  return config;
}

TEST(FaultSweep, PristineLevelNeverBlocks) {
  ThreadPool pool(2);
  const auto result = run_fault_sweep(small_config(), pool);
  ASSERT_FALSE(result.levels.empty());
  // Level 0 is Theorem 3 on an intact fabric: nonblocking by proof.
  EXPECT_EQ(result.levels.front().failures, 0U);
  EXPECT_EQ(result.levels.front().blocked_permutations, 0U);
  EXPECT_EQ(result.levels.front().unroutable_permutations, 0U);
  EXPECT_EQ(result.levels.front().worst_collisions, 0U);
  EXPECT_EQ(result.levels.front().fallback_pairs, 0U);
}

TEST(FaultSweep, LevelsCoverTheConfiguredRange) {
  ThreadPool pool(2);
  const auto config = small_config();
  const auto result = run_fault_sweep(config, pool);
  ASSERT_EQ(result.levels.size(), 5U);  // 0, 2, 4, 6, 8
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    EXPECT_EQ(result.levels[i].failures, i * config.failure_step);
  }
  EXPECT_EQ(result.permutations_per_level, config.permutations_per_level);
}

TEST(FaultSweep, ReproducibleAcrossRunsAndThreadCounts) {
  const auto config = small_config();
  ThreadPool one(1);
  ThreadPool four(4);
  const auto a = run_fault_sweep(config, one);
  const auto b = run_fault_sweep(config, four);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].blocked_permutations,
              b.levels[i].blocked_permutations);
    EXPECT_EQ(a.levels[i].unroutable_permutations,
              b.levels[i].unroutable_permutations);
    EXPECT_EQ(a.levels[i].worst_collisions, b.levels[i].worst_collisions);
    EXPECT_EQ(a.levels[i].fallback_pairs, b.levels[i].fallback_pairs);
  }
  EXPECT_EQ(a.first_blocking_failures, b.first_blocking_failures);
}

TEST(FaultSweep, MarginMatchesFirstDirtyLevel) {
  ThreadPool pool(2);
  auto config = small_config();
  config.max_failures = 16;  // all 16 uplink pairs of ftree(2+4, 4)
  config.failure_step = 4;
  const auto result = run_fault_sweep(config, pool);
  std::optional<std::uint32_t> expected;
  for (const auto& level : result.levels) {
    if (level.blocked_permutations + level.unroutable_permutations > 0) {
      expected = level.failures;
      break;
    }
  }
  EXPECT_EQ(result.first_blocking_failures, expected);
  // With every uplink pair dead the fabric cannot route any cross pair.
  EXPECT_EQ(result.levels.back().unroutable_permutations,
            config.permutations_per_level);
}

TEST(FaultSweep, StopAtFirstBlockingTruncates) {
  ThreadPool pool(2);
  auto config = small_config();
  config.max_failures = 16;
  config.failure_step = 2;
  config.stop_at_first_blocking = true;
  const auto result = run_fault_sweep(config, pool);
  ASSERT_TRUE(result.first_blocking_failures.has_value());
  EXPECT_EQ(result.levels.back().failures, *result.first_blocking_failures);
}

TEST(FaultSweep, RejectsBadConfig) {
  ThreadPool pool(1);
  auto config = small_config();
  config.failure_step = 0;
  EXPECT_THROW((void)run_fault_sweep(config, pool), precondition_error);
  config = small_config();
  config.max_failures = 1000;  // > r * n^2 = 16
  EXPECT_THROW((void)run_fault_sweep(config, pool), precondition_error);
}

/// Pinned per-level counts of two sweeps, each from the intact fabric to
/// every cross pair unroutable, recorded from the link-run scorer this
/// sweep replaced: {failures, blocked, unroutable, worst collisions,
/// fallback pairs}.  fallback_pairs counts the pairs of a trial before
/// its first unroutable pair, so the levels past 6 (resp. 36) pin the
/// source order of the pair checks.
void expect_levels(const FaultSweepConfig& config,
                   const std::vector<FaultSweepLevel>& expect,
                   std::uint32_t first_blocking) {
  for (const std::size_t threads : {1U, 3U}) {
    ThreadPool pool(threads);
    const auto result = run_fault_sweep(config, pool);
    ASSERT_EQ(result.levels.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      SCOPED_TRACE("level " + std::to_string(i));
      EXPECT_EQ(result.levels[i].failures, expect[i].failures);
      EXPECT_EQ(result.levels[i].blocked_permutations,
                expect[i].blocked_permutations);
      EXPECT_EQ(result.levels[i].unroutable_permutations,
                expect[i].unroutable_permutations);
      EXPECT_EQ(result.levels[i].worst_collisions, expect[i].worst_collisions);
      EXPECT_EQ(result.levels[i].fallback_pairs, expect[i].fallback_pairs);
    }
    EXPECT_EQ(result.first_blocking_failures, first_blocking);
  }
}

TEST(FaultSweep, PinnedLevelsOnTwoFabrics) {
  auto small = small_config();
  small.max_failures = 16;
  small.permutations_per_level = 24;
  expect_levels(small,
                {{0, 0, 0, 0, 0},
                 {2, 8, 0, 2, 33},
                 {4, 12, 0, 4, 55},
                 {6, 17, 0, 4, 75},
                 {8, 6, 15, 4, 60},
                 {10, 0, 24, 0, 7},
                 {12, 0, 24, 0, 11},
                 {14, 0, 24, 0, 5},
                 {16, 0, 24, 0, 0}},
                2);
  FaultSweepConfig wide;
  wide.n = 3;
  wide.r = 6;
  wide.max_failures = 54;
  wide.failure_step = 6;
  wide.permutations_per_level = 40;
  wide.seed = 9;
  wide.chunks = 5;
  expect_levels(wide,
                {{0, 0, 0, 0, 0},
                 {6, 32, 0, 6, 132},
                 {12, 36, 0, 6, 224},
                 {18, 40, 0, 7, 323},
                 {24, 40, 0, 15, 402},
                 {30, 40, 0, 17, 476},
                 {36, 1, 39, 11, 101},
                 {42, 0, 40, 0, 41},
                 {48, 0, 40, 0, 3},
                 {54, 0, 40, 0, 0}},
                6);
}

}  // namespace
}  // namespace nbclos::analysis
