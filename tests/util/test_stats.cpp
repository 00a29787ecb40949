#include "nbclos/util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nbclos/util/check.hpp"
#include "nbclos/util/prng.hpp"

namespace nbclos {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  Xoshiro256 rng(17);
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10 - 5;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2U);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2U);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  Xoshiro256 rng(3);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform01();
    if (i < 100) small.add(x);
    large.add(x);
  }
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(QuantileHistogram, EmptyIsZero) {
  QuantileHistogram h(1000);
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(QuantileHistogram, UnitBucketsWhenRangeFitsBinBudget) {
  // max_value < max_bins => one integer per bucket, quantiles exact.
  QuantileHistogram h(100);
  EXPECT_EQ(h.bucket_width(), 1U);
  for (std::uint64_t v = 0; v <= 100; ++v) h.add(v);
  // Rank convention sorted[floor(q * (n - 1))] over n = 101 samples.
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 50.0);
  EXPECT_EQ(h.quantile(0.99), 99.0);
  EXPECT_EQ(h.quantile(1.0), 100.0);
}

TEST(QuantileHistogram, MatchesSortBasedQuantileWithinOneBucket) {
  // Wide value range forces multi-integer buckets; the streaming p99 must
  // land within one bucket width of the exact sort-based p99.
  constexpr std::uint64_t kMax = 1000000;
  QuantileHistogram h(kMax, 4096);
  Xoshiro256 rng(42);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    // Skewed distribution, as latencies are.
    const auto v = rng.below(1000) * rng.below(1000);
    samples.push_back(v);
    h.add(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto exact = static_cast<double>(samples[static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1))]);
    const auto approx = h.quantile(q);
    EXPECT_LE(approx, exact);
    EXPECT_GT(approx + static_cast<double>(h.bucket_width()), exact)
        << "q=" << q;
  }
}

TEST(QuantileHistogram, SaturatesIntoTopBucket) {
  QuantileHistogram h(10);
  h.add(10000);  // beyond max_value: clamps, never out of range
  EXPECT_EQ(h.count(), 1U);
  EXPECT_EQ(h.quantile(1.0), 10.0);
}

TEST(QuantileHistogram, MergeMatchesSequentialFill) {
  QuantileHistogram a(500);
  QuantileHistogram b(500);
  QuantileHistogram all(500);
  for (std::uint64_t v = 0; v < 300; ++v) {
    (v % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q));
  }
}

TEST(QuantileHistogram, MergeRejectsMismatchedGeometry) {
  QuantileHistogram a(500);
  QuantileHistogram b(50000);
  EXPECT_THROW(a.merge(b), precondition_error);
}

TEST(QuantileHistogram, EmptyQuantilesAreZeroAtEveryQ) {
  QuantileHistogram h(1000);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 0.0) << "q=" << q;
  }
  EXPECT_THROW((void)h.quantile(-0.01), precondition_error);
  EXPECT_THROW((void)h.quantile(1.01), precondition_error);
}

TEST(QuantileHistogram, SingleSampleIsEveryQuantile) {
  QuantileHistogram h(1000, 1000);  // width > 1: answer is the bucket edge
  h.add(700);
  EXPECT_EQ(h.count(), 1U);
  const double expect =
      static_cast<double>(700 / h.bucket_width() * h.bucket_width());
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(h.quantile(q), expect) << "q=" << q;
  }
}

TEST(QuantileHistogram, WeightedAddMatchesRepeatedAdd) {
  QuantileHistogram weighted(500);
  QuantileHistogram repeated(500);
  weighted.add(10, 3);
  weighted.add(400, 7);
  for (int i = 0; i < 3; ++i) repeated.add(10);
  for (int i = 0; i < 7; ++i) repeated.add(400);
  EXPECT_EQ(weighted.count(), repeated.count());
  for (const double q : {0.0, 0.2, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(weighted.quantile(q), repeated.quantile(q));
  }
}

TEST(QuantileHistogram, MergeIsAssociativeAcrossShards) {
  // The obs registry merges per-thread shards in whatever order the
  // snapshot walks them; (a + b) + c must equal a + (b + c).
  const auto fill = [](QuantileHistogram& h, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    for (int i = 0; i < 500; ++i) h.add(rng.below(1000));
  };
  QuantileHistogram a1(1000), b1(1000), c1(1000);
  QuantileHistogram a2(1000), b2(1000), c2(1000);
  fill(a1, 1), fill(b1, 2), fill(c1, 3);
  fill(a2, 1), fill(b2, 2), fill(c2, 3);
  a1.merge(b1);
  a1.merge(c1);  // (a + b) + c
  b2.merge(c2);
  a2.merge(b2);  // a + (b + c)
  EXPECT_EQ(a1.count(), a2.count());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.999, 1.0}) {
    EXPECT_EQ(a1.quantile(q), a2.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileHistogram, RunningSumSaturatesInsteadOfWrapping) {
  // Two near-UINT64_MAX flushes would wrap a naive counter back to ~0 and
  // poison every quantile; the histogram pins at UINT64_MAX instead.
  constexpr std::uint64_t kHuge = UINT64_MAX / 2 + 1;
  QuantileHistogram h(100);
  h.add(10, kHuge);
  h.add(90, kHuge);  // total would be 2^64 exactly — must not wrap to 0
  EXPECT_EQ(h.count(), UINT64_MAX);
  EXPECT_EQ(h.quantile(0.0), 10.0);
  EXPECT_EQ(h.quantile(1.0), 90.0);
  EXPECT_EQ(h.quantile(0.25), 10.0);

  // Merging two saturated histograms stays saturated and well-formed.
  QuantileHistogram other(100);
  other.add(50, UINT64_MAX);
  h.merge(other);
  EXPECT_EQ(h.count(), UINT64_MAX);
  EXPECT_GE(h.quantile(0.5), 10.0);
  EXPECT_LE(h.quantile(0.5), 90.0);
}

TEST(PowerFit, RecoversExactPowerLaw) {
  // y = 3 x^1.7
  std::vector<double> x;
  std::vector<double> y;
  for (double v = 2.0; v <= 64.0; v *= 2.0) {
    x.push_back(v);
    y.push_back(3.0 * std::pow(v, 1.7));
  }
  const auto fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.coefficient, 3.0, 1e-9);
  EXPECT_NEAR(fit.exponent, 1.7, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(PowerFit, RejectsDegenerateInput) {
  EXPECT_THROW((void)fit_power_law({1.0}, {1.0}), precondition_error);
  EXPECT_THROW((void)fit_power_law({1.0, 2.0}, {1.0}), precondition_error);
  EXPECT_THROW((void)fit_power_law({1.0, 2.0}, {0.0, 1.0}), precondition_error);
  EXPECT_THROW((void)fit_power_law({2.0, 2.0}, {1.0, 2.0}), precondition_error);
}

}  // namespace
}  // namespace nbclos
