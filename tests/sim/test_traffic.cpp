#include "nbclos/sim/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "nbclos/sim/injection_rng.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::sim {
namespace {

/// The double test the integer threshold replaces.
bool double_accepts(std::uint64_t draw, double p) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53 < p;
}

TEST(InjectionRng, IntegerBernoulliAgreesWithTheDoubleTest) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;  // draw >> 11 < kTop
  for (const double p : {0.0, 0x1.0p-53, 0.0125, 0.5, std::nextafter(1.0, 0.0),
                         1.0}) {
    SCOPED_TRACE(p);
    const std::uint64_t threshold = injection_threshold(p);
    EXPECT_LE(threshold, kTop);
    // k = draw >> 11 on both sides of the threshold and at the ends.
    for (const std::uint64_t k :
         {std::uint64_t{0}, std::uint64_t{1}, threshold - 1, threshold,
          threshold + 1, kTop - 2, kTop - 1}) {
      if (k >= kTop) continue;  // threshold +- 1 past either end
      const std::uint64_t draw = (k << 11) | 0x5A5;  // low bits are dropped
      EXPECT_EQ(draw >> 11 < threshold, double_accepts(draw, p)) << k;
    }
    // And along one counter stream, through injection_bernoulli itself.
    SplitMix64 integer(injection_counter_state(7, 3, 11));
    SplitMix64 reference(injection_counter_state(7, 3, 11));
    for (int i = 0; i < 1000; ++i) {
      EXPECT_EQ(injection_bernoulli(integer, threshold),
                double_accepts(reference.next(), p));
    }
  }
  EXPECT_EQ(injection_threshold(0.0), 0U);
  EXPECT_EQ(injection_threshold(1.0), kTop);
  EXPECT_EQ(injection_threshold(0x1.0p-53), 1U);
}

TEST(InjectionRng, TerminalStrideAdvancesTheCounterState) {
  std::uint64_t state = injection_counter_state(99, 12, 0);
  for (std::uint32_t t = 0; t < 64; ++t, state += kInjectionTerminalStride) {
    EXPECT_EQ(state, injection_counter_state(99, 12, t));
  }
}

TEST(Traffic, PermutationFixesDestinations) {
  const Permutation pattern{{LeafId{0}, LeafId{3}}, {LeafId{2}, LeafId{1}}};
  const auto traffic = TrafficPattern::permutation(pattern, 4);
  Xoshiro256 rng(1);
  EXPECT_EQ(traffic.destination(0, rng), 3U);
  EXPECT_EQ(traffic.destination(2, rng), 1U);
  EXPECT_EQ(traffic.destination(1, rng), std::nullopt);  // silent source
  EXPECT_EQ(traffic.destination(3, rng), std::nullopt);
  EXPECT_EQ(traffic.name(), "permutation");
}

TEST(Traffic, PermutationValidatesPattern) {
  EXPECT_THROW((void)TrafficPattern::permutation({{LeafId{0}, LeafId{9}}}, 4),
               precondition_error);
}

TEST(Traffic, UniformNeverTargetsSelf) {
  const auto traffic = TrafficPattern::uniform(5);
  Xoshiro256 rng(2);
  for (std::uint32_t src = 0; src < 5; ++src) {
    for (int i = 0; i < 200; ++i) {
      const auto dst = traffic.destination(src, rng);
      ASSERT_TRUE(dst.has_value());
      EXPECT_NE(*dst, src);
      EXPECT_LT(*dst, 5U);
    }
  }
}

TEST(Traffic, UniformIsRoughlyBalanced) {
  const auto traffic = TrafficPattern::uniform(4);
  Xoshiro256 rng(3);
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 30'000; ++i) {
    ++counts[*traffic.destination(0, rng)];
  }
  for (const auto& [dst, count] : counts) {
    EXPECT_NEAR(count, 10'000, 500) << "dst " << dst;
  }
}

TEST(Traffic, HotspotBiasesTowardTarget) {
  const auto traffic = TrafficPattern::hotspot(10, 7, 0.5);
  Xoshiro256 rng(4);
  int hot = 0;
  constexpr int kDraws = 10'000;
  for (int i = 0; i < kDraws; ++i) {
    if (*traffic.destination(0, rng) == 7U) ++hot;
  }
  // P(hot) = 0.5 + 0.5 * (1/9) ~ 0.5556.
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, 0.5556, 0.03);
}

TEST(Traffic, HotspotTerminalItselfDrawsUniform) {
  const auto traffic = TrafficPattern::hotspot(4, 2, 1.0);
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    const auto dst = *traffic.destination(2, rng);
    EXPECT_NE(dst, 2U);
  }
}

TEST(Traffic, RejectsBadParameters) {
  EXPECT_THROW((void)TrafficPattern::uniform(1), precondition_error);
  EXPECT_THROW((void)TrafficPattern::hotspot(4, 5, 0.1), precondition_error);
  EXPECT_THROW((void)TrafficPattern::hotspot(4, 1, 1.5), precondition_error);
  const auto traffic = TrafficPattern::uniform(4);
  Xoshiro256 rng(6);
  EXPECT_THROW((void)traffic.destination(4, rng), precondition_error);
}

}  // namespace
}  // namespace nbclos::sim
