/// \file metrics.hpp
/// \brief Thread-safe metrics registry: named counters, gauges, and
///        quantile histograms shared by every engine in the library.
///
/// Design (see DESIGN.md §"observability layer"):
///   * handles are resolved ONCE (registry lookup under a mutex) and then
///     held by reference — the hot path never touches the name map;
///   * counters are sharded per thread: an increment is one relaxed
///     fetch_add on a cache-line-padded slot owned by the calling thread,
///     so concurrent engines (sweep workers, verify shards) never contend;
///   * gauges are single relaxed stores (last-writer-wins by design);
///   * histograms reuse util::QuantileHistogram behind per-shard locks
///     that are uncontended in practice (shard index ~ thread);
///   * a snapshot merges all shards without stopping writers.
///
/// When the library is configured with -DNBCLOS_OBS=OFF every type below
/// collapses to an inline empty stub, so instrumented call sites compile
/// to true no-ops (verified by the NBCLOS_OBS=OFF CI / test build).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#ifndef NBCLOS_OBS_ENABLED
#define NBCLOS_OBS_ENABLED 1
#endif

#include "nbclos/util/stats.hpp"

#if NBCLOS_OBS_ENABLED
#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#endif

namespace nbclos::obs {

/// Compile-time switch mirroring the NBCLOS_OBS CMake option; lets
/// call sites use `if constexpr (obs::kEnabled)` for code that should
/// vanish entirely from an OFF build.
inline constexpr bool kEnabled = NBCLOS_OBS_ENABLED != 0;

/// One merged metric value in a snapshot.
struct MetricSample {
  std::string name;
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram } kind =
      Kind::kCounter;
  std::uint64_t count = 0;  ///< counter value / histogram sample count
  std::int64_t gauge = 0;   ///< gauge value (kGauge only)
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;  ///< kHistogram only
  double hist_bucket_width = 0.0;           ///< kHistogram only
};

#if NBCLOS_OBS_ENABLED

namespace detail {

/// Number of cache-line-padded shard slots per counter.  Threads beyond
/// this many share slots (correctness is unaffected; only contention).
inline constexpr std::size_t kShards = 32;

/// Destructive-interference distance; a fixed 64 avoids GCC's
/// -Winterference-size ABI warning and is right for every target we
/// build on (x86-64, aarch64 pad to 64 or 128 — padding more than a
/// line only wastes a little space).
inline constexpr std::size_t kCacheLine = 64;

/// Stable per-thread shard index, assigned on first use.
[[nodiscard]] std::size_t shard_index() noexcept;

/// Global master switch (see obs::set_enabled).  Relaxed: a stale read
/// merely records or skips a few events around the toggle.
[[nodiscard]] bool runtime_enabled() noexcept;

}  // namespace detail

/// Runtime master switch for all metric recording and tracing.  Defaults
/// to on; benches pause it to measure the instrumented-but-idle cost
/// (the compiled-off cost is measured by an NBCLOS_OBS=OFF build).
void set_enabled(bool enabled) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Monotonic counter.  add() is wait-free: one relaxed fetch_add on the
/// calling thread's padded slot.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    if (!detail::runtime_enabled()) return;
    slots_[detail::shard_index()].value.fetch_add(delta,
                                                  std::memory_order_relaxed);
  }

  /// Sum over shards.  Safe concurrently with writers (relaxed loads);
  /// the result is a valid value the counter passed through.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() noexcept {
    for (auto& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(detail::kCacheLine) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Slot, detail::kShards> slots_{};
};

/// Last-writer-wins signed gauge with an additive mode for occupancy
/// tracking (add/sub from concurrent workers).
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    if (!detail::runtime_enabled()) return;
    value_.store(value, std::memory_order_relaxed);
    update_max(value);
  }
  void add(std::int64_t delta) noexcept {
    if (!detail::runtime_enabled()) return;
    const auto now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    update_max(now);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// High-water mark since construction / reset.
  [[nodiscard]] std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_max(std::int64_t candidate) noexcept {
    auto current = max_.load(std::memory_order_relaxed);
    while (candidate > current &&
           !max_.compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Sharded quantile histogram: each shard pairs a util::QuantileHistogram
/// with a mutex that is uncontended as long as at most ~kShards threads
/// record concurrently.  A shard allocates its bins on its first record,
/// so an instrument costs memory only for the threads that use it.
/// Snapshot merges shards (merge is associative and commutative — see
/// tests/util/test_stats.cpp).
class HistogramMetric {
 public:
  HistogramMetric(std::uint64_t max_value, std::size_t max_bins);

  void record(std::uint64_t value) noexcept;

  /// Merged copy of all shards.
  [[nodiscard]] QuantileHistogram merged() const;

  void reset();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::optional<QuantileHistogram> hist;  ///< empty until first record
  };
  std::uint64_t max_value_;
  std::size_t max_bins_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Name -> instrument registry.  Lookup is mutex-guarded and intended to
/// happen once per engine construction; returned references stay valid
/// for the registry's lifetime (instruments are never removed).
class MetricsRegistry {
 public:
  /// The process-wide registry used by all engines.
  [[nodiscard]] static MetricsRegistry& global();

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// \pre geometry must match across calls with the same name.
  [[nodiscard]] HistogramMetric& histogram(const std::string& name,
                                           std::uint64_t max_value,
                                           std::size_t max_bins = 2048);

  /// Merged view of every instrument, sorted by name.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Zero every instrument (benches / tests); handles stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

#else  // !NBCLOS_OBS_ENABLED — inline no-op stubs

inline void set_enabled(bool) noexcept {}
[[nodiscard]] inline bool enabled() noexcept { return false; }

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class Gauge {
 public:
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
  [[nodiscard]] std::int64_t value() const noexcept { return 0; }
  [[nodiscard]] std::int64_t max() const noexcept { return 0; }
  void reset() noexcept {}
};

class HistogramMetric {
 public:
  void record(std::uint64_t) noexcept {}
  [[nodiscard]] QuantileHistogram merged() const { return QuantileHistogram(1); }
  void reset() noexcept {}
};

class MetricsRegistry {
 public:
  [[nodiscard]] static MetricsRegistry& global() {
    static MetricsRegistry registry;
    return registry;
  }
  [[nodiscard]] Counter& counter(const std::string&) { return counter_; }
  [[nodiscard]] Gauge& gauge(const std::string&) { return gauge_; }
  [[nodiscard]] HistogramMetric& histogram(const std::string&, std::uint64_t,
                                           std::size_t = 2048) {
    return histogram_;
  }
  [[nodiscard]] std::vector<MetricSample> snapshot() const { return {}; }
  void reset() {}

 private:
  Counter counter_;
  Gauge gauge_;
  HistogramMetric histogram_;
};

#endif  // NBCLOS_OBS_ENABLED

/// Shorthand used throughout the engines.
[[nodiscard]] inline MetricsRegistry& metrics() {
  return MetricsRegistry::global();
}

}  // namespace nbclos::obs
