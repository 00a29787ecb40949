/// \file bench_scale.cpp
/// \brief Large-radix scaling: route-cache build rate, batched
///        verification throughput, and memory footprint across radix
///        8 / 16 / 32 / 48 fabrics.
///
/// One JSON document on stdout (schema in EXPERIMENTS.md).  For each
/// radix the harness measures, on the nonblocking ftree(n + n^2, r)
/// instance:
///   * route_cache — RouteCache::materialize wall time, routes/sec, and
///     the cache's byte footprint (3 bytes per ordered pair);
///   * verify_random — batched verify_random_parallel (BatchLoadKernel)
///     permutations/sec, with the nonblocking verdict asserted;
///   * load_probe — batched estimate_blocking_parallel under d-mod-k
///     (the blocking baseline), permutations/sec;
///   * cache_hit_rate — obs route_cache.lookups /
///     (lookups + routes_materialized) over the case's work, i.e. the
///     fraction of path requests served from the cache instead of a
///     route() call;
///   * peak_rss_kb — getrusage high-water mark after the case ran.
/// Results are seeded and bit-reproducible at any thread count (the
/// drivers chunk deterministically); timings warm up once and report the
/// best of three repetitions.  Pass --quick for CI smoke budgets,
/// --threads <T> to cap the worker pool.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "nbclos/analysis/batch.hpp"
#include "nbclos/analysis/parallel.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/util/json.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One untimed warm-up call, then the minimum wall time over `reps`
/// timed calls (deterministic work; only the timing varies).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double secs = seconds_since(t0);
    if (secs < best) best = secs;
  }
  return best;
}

// Best-of-5: the scale cases are short (milliseconds), so extra
// repetitions are cheap and squeeze out scheduler noise that best-of-3
// lets through on busy machines.
constexpr int kTimingReps = 5;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t max_threads = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--threads" && i + 1 < argc) {
      max_threads = std::stoull(argv[i + 1]);
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  auto manifest = nbclos::obs::RunInfo::current();
  manifest.seed = 42;
  manifest.threads = static_cast<std::uint32_t>(max_threads);
  nbclos::ThreadPool pool(max_threads);

  // Quick budgets stay large enough that the smallest case's timed
  // sections run for milliseconds — sub-millisecond sections make the
  // regression comparison scheduler-noise-bound.
  const std::uint64_t verify_trials = quick ? 4000 : 20000;
  const std::uint64_t probe_trials = quick ? 4000 : 20000;

  nbclos::JsonWriter json(std::cout);
  json.begin_object();
  json.member("experiment", "scale");
  json.member("quick", quick);
  json.member("hardware_concurrency",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.member("verify_trials", verify_trials);
  json.member("probe_trials", probe_trials);

  struct Case {
    std::uint32_t n, r;
  };
  const std::vector<Case> cases = {{4, 8}, {4, 16}, {8, 32}, {8, 48}};

  json.key("cases").begin_array();
  for (const auto c : cases) {
    const nbclos::FoldedClos ftree(nbclos::FtreeParams{c.n, c.n * c.n, c.r});
    const nbclos::YuanNonblockingRouting yuan(ftree);
    const nbclos::DModKRouting dmodk(ftree);

    auto& metrics = nbclos::obs::metrics();
    const auto lookups_before = metrics.counter("route_cache.lookups").value();
    const auto routed_before =
        metrics.counter("route_cache.routes_materialized").value();

    json.begin_object();
    json.member("radix", c.r);
    json.member("topology", "ftree(" + std::to_string(c.n) + "+" +
                                std::to_string(c.n * c.n) + ", " +
                                std::to_string(c.r) + ")");
    json.member("leafs", ftree.leaf_count());
    json.member("links", ftree.link_count());

    // --- route-cache build rate and footprint -------------------------
    {
      const double secs = best_seconds(kTimingReps, [&] {
        const auto cache = nbclos::routing::RouteCache::materialize(yuan);
        if (cache.any_unroutable()) std::abort();  // impossible: healthy
      });
      const auto cache = nbclos::routing::RouteCache::materialize(yuan);
      const auto routes =
          cache.pair_count() - ftree.leaf_count();  // diagonal is empty
      const nbclos::analysis::BatchLoadKernel kernel(cache);
      json.key("route_cache").begin_object();
      json.member("build_seconds", secs);
      json.member("routes_materialized", routes);
      json.member("routes_per_sec", static_cast<double>(routes) / secs);
      json.member("cache_bytes", static_cast<std::uint64_t>(cache.bytes()));
      json.member("kernel_arena_bytes",
                  static_cast<std::uint64_t>(kernel.bytes()));
      json.end_object();
    }

    // --- batched randomized verification (nonblocking instance) -------
    {
      nbclos::VerifyResult result;
      const double secs = best_seconds(kTimingReps, [&] {
        result = nbclos::verify_random_parallel(ftree, yuan, verify_trials,
                                                42, pool);
      });
      if (!result.nonblocking) {
        std::cerr << "Yuan routing must verify nonblocking at radix " << c.r
                  << "\n";
        return 1;
      }
      json.key("verify_random").begin_object();
      json.member("routing", yuan.name());
      json.member("nonblocking", result.nonblocking);
      json.member("seconds", secs);
      json.member("perms_per_sec",
                  static_cast<double>(result.permutations_checked) / secs);
      json.end_object();
    }

    // --- batched load-sweep probe (blocking baseline) ------------------
    {
      nbclos::BlockingEstimate estimate;
      const double secs = best_seconds(kTimingReps, [&] {
        estimate = nbclos::estimate_blocking_parallel(ftree, dmodk,
                                                      probe_trials, 42, pool);
      });
      json.key("load_probe").begin_object();
      json.member("routing", "d-mod-k");
      json.member("blocking_probability", estimate.blocking_probability);
      json.member("mean_colliding_pairs", estimate.mean_colliding_pairs);
      json.member("seconds", secs);
      json.member("perms_per_sec",
                  static_cast<double>(estimate.trials) / secs);
      json.end_object();
    }

    // --- cache effectiveness over this case's work ---------------------
    const auto lookups =
        metrics.counter("route_cache.lookups").value() - lookups_before;
    const auto routed =
        metrics.counter("route_cache.routes_materialized").value() -
        routed_before;
    json.member("cache_lookups", lookups);
    json.member("cache_hit_rate",
                lookups + routed > 0
                    ? static_cast<double>(lookups) /
                          static_cast<double>(lookups + routed)
                    : 0.0);
    json.member("peak_rss_kb", nbclos::obs::peak_rss_kb());
    json.end_object();
  }
  json.end_array();

  manifest.wall_seconds = seconds_since(wall_start);
  // Sample the manifest's RSS high-water mark *after* every case's
  // caches and kernel arenas have been built — sampling at startup
  // under-reported by the size of everything the bench allocated.
  manifest.peak_rss_kb = nbclos::obs::peak_rss_kb();
  json.key("manifest");
  manifest.write_json(json);
  json.end_object();
  std::cout << "\n";
  return 0;
}
