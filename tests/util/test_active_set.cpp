#include "nbclos/util/active_set.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "nbclos/util/prng.hpp"

namespace nbclos {
namespace {

std::vector<std::uint32_t> members(const ActiveSet& set) {
  std::vector<std::uint32_t> out;
  set.for_each([&](std::uint32_t id) { out.push_back(id); });
  return out;
}

TEST(ActiveSet, StartsEmpty) {
  const ActiveSet set(130);
  EXPECT_EQ(set.size(), 0U);
  EXPECT_TRUE(members(set).empty());
  EXPECT_TRUE(members(ActiveSet{}).empty());
}

TEST(ActiveSet, VisitsWordAndSummaryBoundariesInOrder) {
  // n is not a multiple of 64, and spans two summary words (4096 ids each).
  constexpr std::uint32_t kN = 5000;
  ActiveSet set(kN);
  for (const std::uint32_t id : {4096U, kN - 1, 64U, 0U, 4095U, 63U}) {
    set.insert(id);
  }
  EXPECT_EQ(set.size(), 6U);
  const std::vector<std::uint32_t> expect = {0, 63, 64, 4095, 4096, kN - 1};
  EXPECT_EQ(members(set), expect);
  std::vector<std::uint32_t> swept;
  set.sweep([&](std::uint32_t id) {
    swept.push_back(id);
    return true;
  });
  EXPECT_EQ(swept, expect);
  EXPECT_EQ(members(set), expect);  // keeping every member changes nothing
}

TEST(ActiveSet, DuplicateInsertIsANoOp) {
  ActiveSet set(100);
  set.insert(42);
  set.insert(42);
  set.insert(7);
  set.insert(42);
  EXPECT_EQ(set.size(), 2U);
  EXPECT_EQ(members(set), (std::vector<std::uint32_t>{7, 42}));
}

TEST(ActiveSet, SweepErasesRejectedMembersAndAllowsReinsert) {
  ActiveSet set(300);
  for (std::uint32_t id = 0; id < 300; id += 3) set.insert(id);
  ASSERT_EQ(set.size(), 100U);
  // Drop every even member; size follows at once.
  std::vector<std::uint32_t> visited;
  set.sweep([&](std::uint32_t id) {
    visited.push_back(id);
    return id % 2 == 1;
  });
  EXPECT_EQ(visited.size(), 100U);
  EXPECT_EQ(set.size(), 50U);
  for (const auto id : members(set)) EXPECT_EQ(id % 2, 1U);
  // Erased ids come back on insert, in order among the kept ones.
  set.insert(6);
  set.insert(0);
  EXPECT_EQ(set.size(), 52U);
  const auto after = members(set);
  ASSERT_GE(after.size(), 3U);
  EXPECT_EQ(after[0], 0U);
  EXPECT_EQ(after[1], 3U);
  EXPECT_EQ(after[2], 6U);
  // Emptying a whole word clears its summary bit; the set still works.
  set.sweep([](std::uint32_t) { return false; });
  EXPECT_EQ(set.size(), 0U);
  EXPECT_TRUE(members(set).empty());
  set.insert(299);
  EXPECT_EQ(members(set), (std::vector<std::uint32_t>{299}));
}

TEST(ActiveSet, MatchesStdSetUnderRandomOps) {
  for (const std::uint32_t n : {1U, 200U, 9000U}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ActiveSet set(n);
    std::set<std::uint32_t> model;
    Xoshiro256 rng(0xAC71 + n);
    for (int op = 0; op < 10000; ++op) {
      const auto kind = rng.below(4);
      if (kind < 3) {
        const auto id = static_cast<std::uint32_t>(rng.below(n));
        set.insert(id);
        model.insert(id);
        continue;
      }
      // Sweep: keep each member with probability 1/2.  The sweep must
      // visit exactly the model's members, in ascending order.
      const std::vector<std::uint32_t> expect(model.begin(), model.end());
      ASSERT_EQ(set.size(), expect.size());
      std::vector<std::uint32_t> visited;
      set.sweep([&](std::uint32_t id) {
        visited.push_back(id);
        if (rng.bernoulli(0.5)) return true;
        model.erase(id);
        return false;
      });
      ASSERT_EQ(visited, expect);
      ASSERT_EQ(set.size(), model.size());
      ASSERT_EQ(members(set),
                std::vector<std::uint32_t>(model.begin(), model.end()));
    }
    EXPECT_EQ(members(set),
              std::vector<std::uint32_t>(model.begin(), model.end()));
  }
}

}  // namespace
}  // namespace nbclos
