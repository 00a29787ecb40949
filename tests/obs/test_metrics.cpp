/// \file test_metrics.cpp
/// \brief MetricsRegistry: counters, gauges, histograms, snapshots, and
///        cross-thread recording.  Every test also compiles (and passes)
///        against the NBCLOS_OBS=OFF stubs; tests that assert recorded
///        values skip themselves in that configuration.
#include "nbclos/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "nbclos/util/check.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos::obs {
namespace {

TEST(ObsMetrics, RuntimeSwitchDefaultsToCompiledState) {
  if constexpr (kEnabled) {
    EXPECT_TRUE(enabled());
  } else {
    EXPECT_FALSE(enabled());
    set_enabled(true);  // stub: must stay off and stay a no-op
    EXPECT_FALSE(enabled());
  }
}

TEST(ObsMetrics, CounterAccumulatesAcrossPoolThreads) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& counter = metrics().counter("test.counter.pool");
  counter.reset();
  ThreadPool pool(8);
  for (int task = 0; task < 64; ++task) {
    pool.submit([&counter] {
      for (int i = 0; i < 100; ++i) counter.add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.value(), 6400U);
  counter.reset();
  EXPECT_EQ(counter.value(), 0U);
}

TEST(ObsMetrics, GaugeTracksValueAndHighWaterMark) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& gauge = metrics().gauge("test.gauge.basic");
  gauge.reset();
  gauge.set(5);
  gauge.add(3);
  EXPECT_EQ(gauge.value(), 8);
  EXPECT_EQ(gauge.max(), 8);
  gauge.add(-6);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.max(), 8);  // high-water mark survives the drop
}

TEST(ObsMetrics, GaugeOccupancyAcrossPoolThreads) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& gauge = metrics().gauge("test.gauge.occupancy");
  gauge.reset();
  ThreadPool pool(4);
  for (int task = 0; task < 200; ++task) {
    pool.submit([&gauge] {
      gauge.add(1);
      gauge.add(-1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(gauge.value(), 0);  // every add is balanced by a sub
  EXPECT_GE(gauge.max(), 1);
  EXPECT_LE(gauge.max(), 4);  // never more than the worker count
}

TEST(ObsMetrics, HistogramMergesShardsOnSnapshot) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& hist = metrics().histogram("test.hist.sharded", 1000);
  hist.reset();
  ThreadPool pool(8);
  // 8 x 125 = 1000 samples of 0..999 spread over worker threads.
  pool.parallel_for(0, 1000, [&hist](std::size_t i) {
    hist.record(static_cast<std::uint64_t>(i));
  });
  pool.wait_idle();
  const auto merged = hist.merged();
  EXPECT_EQ(merged.count(), 1000U);
  EXPECT_NEAR(merged.quantile(0.5), 500.0,
              static_cast<double>(merged.bucket_width()));
}

TEST(ObsMetrics, HistogramMergeAddsALocalHistogramOfTheSameGeometry) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& hist = metrics().histogram("test.hist.merged", 1000, 64);
  hist.reset();
  QuantileHistogram local(1000, 64);
  QuantileHistogram recorded(1000, 64);
  for (std::uint64_t v = 0; v < 500; v += 3) {
    local.add(v);
    recorded.add(v);
    hist.record(v);
  }
  hist.merge(local);  // the same samples again, in one step
  recorded.merge(local);
  const auto merged = hist.merged();
  EXPECT_EQ(merged.count(), recorded.count());
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(merged.quantile(q), recorded.quantile(q)) << q;
  }
  EXPECT_THROW(hist.merge(QuantileHistogram(1000, 128)), precondition_error);
  EXPECT_THROW(hist.merge(QuantileHistogram(2000, 64)), precondition_error);
}

TEST(ObsMetrics, SnapshotReportsEveryKindSortedByName) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  metrics().counter("test.snap.counter").reset();
  metrics().counter("test.snap.counter").add(7);
  metrics().gauge("test.snap.gauge").reset();
  metrics().gauge("test.snap.gauge").set(-3);
  auto& hist = metrics().histogram("test.snap.hist", 100);
  hist.reset();
  for (std::uint64_t v = 0; v <= 100; ++v) hist.record(v);

  const auto samples = metrics().snapshot();
  EXPECT_TRUE(std::is_sorted(
      samples.begin(), samples.end(),
      [](const MetricSample& a, const MetricSample& b) {
        return a.name < b.name;
      }));
  const auto find = [&samples](const std::string& name) {
    const auto it =
        std::find_if(samples.begin(), samples.end(),
                     [&name](const MetricSample& s) { return s.name == name; });
    EXPECT_NE(it, samples.end()) << name;
    return *it;
  };
  const auto counter = find("test.snap.counter");
  EXPECT_EQ(counter.kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(counter.count, 7U);
  const auto gauge = find("test.snap.gauge");
  EXPECT_EQ(gauge.kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(gauge.gauge, -3);
  const auto histogram = find("test.snap.hist");
  EXPECT_EQ(histogram.kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(histogram.count, 101U);
  EXPECT_EQ(histogram.p50, 50.0);
}

TEST(ObsMetrics, HandlesStayValidAndStableAcrossLookups) {
  auto& first = metrics().counter("test.handle.stable");
  auto& second = metrics().counter("test.handle.stable");
  EXPECT_EQ(&first, &second);
  auto& h1 = metrics().histogram("test.handle.hist", 100);
  auto& h2 = metrics().histogram("test.handle.hist", 100);
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsMetrics, PausedRecordingIsDropped) {
  if constexpr (!kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& counter = metrics().counter("test.paused.counter");
  counter.reset();
  set_enabled(false);
  counter.add(100);
  EXPECT_EQ(counter.value(), 0U);
  set_enabled(true);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1U);
}

TEST(ObsMetrics, OffBuildStubsReturnEmpty) {
  if constexpr (kEnabled) GTEST_SKIP() << "obs compiled in";
  auto& counter = metrics().counter("test.off.counter");
  counter.add(5);
  EXPECT_EQ(counter.value(), 0U);
  EXPECT_TRUE(metrics().snapshot().empty());
}

}  // namespace
}  // namespace nbclos::obs
