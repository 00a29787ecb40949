/// \file stats.hpp
/// \brief Streaming statistics used by the experiment harnesses:
///        Welford running moments, min/max tracking, normal-approximation
///        confidence intervals, a bounded-memory quantile histogram,
///        per-source fairness extremes, and a power-law fit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nbclos {

/// Numerically-stable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merge another accumulator (parallel reduction; Chan et al. update).
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

  /// Half-width of the ~95% normal-approximation confidence interval.
  [[nodiscard]] double ci95_half_width() const noexcept;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming quantile estimator for non-negative integer-valued samples
/// (e.g. packet latencies in cycles) with a bounded value range known up
/// front.  Memory is O(min(max_value, max_bins)) regardless of sample
/// count, so the simulator can track p50/p99/p999 over arbitrarily long
/// runs without buffering every sample for an end-of-run sort.
///
/// Quantiles follow the sort-rank convention `sorted[floor(q * (n - 1))]`
/// at bucket resolution: the returned value is the lower edge of the
/// bucket containing that rank, so the error is strictly less than one
/// `bucket_width()`.  When `max_value < max_bins` every bucket holds a
/// single integer and quantiles are exact.
class QuantileHistogram {
 public:
  /// \param max_value largest sample that keeps full resolution; larger
  ///        samples saturate into the top bucket.
  /// \param max_bins  memory bound; bucket width is the smallest integer
  ///        covering [0, max_value] within this many buckets.
  explicit QuantileHistogram(std::uint64_t max_value,
                             std::size_t max_bins = 4096);

  void add(std::uint64_t value) noexcept;

  /// Record `weight` occurrences of `value` in one call (used when a
  /// worker flushes a locally-accumulated count; equivalent to calling
  /// add(value) `weight` times).  The running count saturates at
  /// UINT64_MAX instead of wrapping.
  void add(std::uint64_t value, std::uint64_t weight) noexcept;

  /// Merge another histogram (parallel reduction).  \pre identical
  /// geometry (same max_value / max_bins).
  void merge(const QuantileHistogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket_width() const noexcept { return width_; }

  /// Lower edge of the bucket holding rank floor(q * (count - 1));
  /// 0 when empty.  \pre 0 <= q <= 1.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::uint64_t width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Per-source fairness: set `result.{min,max}_flow_throughput` to the
/// extremes of delivered(t) / cycles (flits per cycle) over the terminals
/// t that sent anything, folded in ascending t (left as they are, 0 in a
/// fresh result, when none sent).  Every engine reports fairness through
/// this one fold, so the doubles agree bit for bit.
template <class Result, class Sent, class Delivered>
void set_flow_extremes(Result& result, std::uint32_t terminals,
                       std::uint64_t cycles, Sent&& sent,
                       Delivered&& delivered) {
  bool first = true;
  for (std::uint32_t t = 0; t < terminals; ++t) {
    if (!sent(t)) continue;
    const double rate = static_cast<double>(delivered(t)) /
                        static_cast<double>(cycles);
    if (first) {
      result.min_flow_throughput = rate;
      result.max_flow_throughput = rate;
      first = false;
    } else {
      result.min_flow_throughput = std::min(result.min_flow_throughput, rate);
      result.max_flow_throughput = std::max(result.max_flow_throughput, rate);
    }
  }
}

/// Least-squares fit of y = a * x^b through points (x_i, y_i) in log space.
/// Returns {a, b}.  Used to measure the empirical exponent in Theorem 5.
struct PowerFit {
  double coefficient;  ///< a
  double exponent;     ///< b
  double r_squared;    ///< goodness of fit in log space
};

[[nodiscard]] PowerFit fit_power_law(const std::vector<double>& x,
                                     const std::vector<double>& y);

}  // namespace nbclos
