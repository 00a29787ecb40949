#include "nbclos/obs/metrics.hpp"

#if NBCLOS_OBS_ENABLED

#include <algorithm>

#include "nbclos/util/check.hpp"

namespace nbclos::obs {

namespace detail {

namespace {
std::atomic<bool> g_enabled{true};
std::atomic<std::size_t> g_next_shard{0};
}  // namespace

std::size_t shard_index() noexcept {
  thread_local const std::size_t index =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

bool runtime_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

}  // namespace detail

void set_enabled(bool enabled) noexcept {
  detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() noexcept { return detail::runtime_enabled(); }

HistogramMetric::HistogramMetric(std::uint64_t max_value,
                                 std::size_t max_bins)
    : max_value_(max_value), max_bins_(max_bins) {
  shards_.reserve(detail::kShards);
  for (std::size_t s = 0; s < detail::kShards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void HistogramMetric::record(std::uint64_t value) noexcept {
  if (!detail::runtime_enabled()) return;
  Shard& shard = *shards_[detail::shard_index()];
  const std::scoped_lock lock(shard.mutex);
  if (!shard.hist) shard.hist.emplace(max_value_, max_bins_);
  shard.hist->add(value);
}

void HistogramMetric::merge(const QuantileHistogram& hist) {
  if (!detail::runtime_enabled()) return;
  Shard& shard = *shards_[detail::shard_index()];
  const std::scoped_lock lock(shard.mutex);
  if (!shard.hist) shard.hist.emplace(max_value_, max_bins_);
  shard.hist->merge(hist);  // checks the geometry
}

QuantileHistogram HistogramMetric::merged() const {
  QuantileHistogram merged(max_value_, max_bins_);
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mutex);
    if (shard->hist) merged.merge(*shard->hist);
  }
  return merged;
}

void HistogramMetric::reset() {
  for (auto& shard : shards_) {
    const std::scoped_lock lock(shard->mutex);
    shard->hist.reset();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            std::uint64_t max_value,
                                            std::size_t max_bins) {
  const std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>(max_value, max_bins);
  return *slot;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kCounter;
    sample.count = counter->value();
    samples.push_back(std::move(sample));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kGauge;
    sample.gauge = gauge->value();
    samples.push_back(std::move(sample));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kHistogram;
    const auto merged = histogram->merged();
    sample.count = merged.count();
    sample.p50 = merged.quantile(0.50);
    sample.p99 = merged.quantile(0.99);
    sample.p999 = merged.quantile(0.999);
    sample.hist_bucket_width = static_cast<double>(merged.bucket_width());
    samples.push_back(std::move(sample));
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace nbclos::obs

#endif  // NBCLOS_OBS_ENABLED
