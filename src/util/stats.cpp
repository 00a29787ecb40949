#include "nbclos/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "nbclos/util/check.hpp"

namespace nbclos {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::ci95_half_width() const noexcept {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

QuantileHistogram::QuantileHistogram(std::uint64_t max_value,
                                     std::size_t max_bins)
    : width_(max_value / max_bins + 1),
      counts_(static_cast<std::size_t>(max_value / (max_value / max_bins + 1)) +
                  1,
              0) {
  NBCLOS_REQUIRE(max_bins > 0, "histogram needs at least one bucket");
}

void QuantileHistogram::add(std::uint64_t value) noexcept {
  add(value, 1);
}

void QuantileHistogram::add(std::uint64_t value,
                            std::uint64_t weight) noexcept {
  const auto idx = static_cast<std::size_t>(value / width_);
  auto& bucket = counts_[std::min(idx, counts_.size() - 1)];
  // Saturate instead of wrapping: a wrapped count would silently corrupt
  // every later quantile; a pinned one merely loses resolution at the
  // extreme (tested in tests/util/test_stats.cpp).
  bucket += std::min(weight, UINT64_MAX - bucket);
  total_ += std::min(weight, UINT64_MAX - total_);
}

void QuantileHistogram::merge(const QuantileHistogram& other) {
  NBCLOS_REQUIRE(width_ == other.width_ &&
                     counts_.size() == other.counts_.size(),
                 "cannot merge histograms with different geometry");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    auto& bucket = counts_[i];
    bucket += std::min(other.counts_[i], UINT64_MAX - bucket);
  }
  total_ += std::min(other.total_, UINT64_MAX - total_);
}

double QuantileHistogram::quantile(double q) const {
  NBCLOS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (total_ == 0) return 0.0;
  // double(total_ - 1) rounds UP to 2^64 when the count is near
  // UINT64_MAX, and casting that back would overflow — clamp first.
  const double target = q * static_cast<double>(total_ - 1);
  const auto rank = target >= static_cast<double>(total_ - 1)
                        ? total_ - 1
                        : static_cast<std::uint64_t>(target);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += std::min(counts_[i], UINT64_MAX - cumulative);
    if (cumulative > rank) {
      return static_cast<double>(i * width_);
    }
  }
  return static_cast<double>((counts_.size() - 1) * width_);
}

PowerFit fit_power_law(const std::vector<double>& x,
                       const std::vector<double>& y) {
  NBCLOS_REQUIRE(x.size() == y.size(), "x/y length mismatch");
  NBCLOS_REQUIRE(x.size() >= 2, "need at least two points");
  const auto count = static_cast<double>(x.size());
  double sum_lx = 0.0;
  double sum_ly = 0.0;
  double sum_lxly = 0.0;
  double sum_lx2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    NBCLOS_REQUIRE(x[i] > 0.0 && y[i] > 0.0, "power fit needs positive data");
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sum_lx += lx;
    sum_ly += ly;
    sum_lxly += lx * ly;
    sum_lx2 += lx * lx;
  }
  const double denom = count * sum_lx2 - sum_lx * sum_lx;
  NBCLOS_REQUIRE(denom != 0.0, "degenerate x values");
  const double b = (count * sum_lxly - sum_lx * sum_ly) / denom;
  const double log_a = (sum_ly - b * sum_lx) / count;

  // R^2 in log space.
  const double mean_ly = sum_ly / count;
  double ss_tot = 0.0;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ly = std::log(y[i]);
    const double pred = log_a + b * std::log(x[i]);
    ss_tot += (ly - mean_ly) * (ly - mean_ly);
    ss_res += (ly - pred) * (ly - pred);
  }
  const double r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return PowerFit{std::exp(log_a), b, r2};
}

}  // namespace nbclos
