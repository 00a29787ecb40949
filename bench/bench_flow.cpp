/// \file bench_flow.cpp
/// \brief Flow-control engine throughput and buffer-margin sweeps: how
///        fast the cycle-level simulator runs, and how many buffer flits
///        per port each routing needs before it sustains nonblocking
///        throughput, on radix-8 and radix-16 fabrics.
///
/// One JSON document on stdout (schema in EXPERIMENTS.md).  For each
/// radix the harness measures, on ftree(4 + 16, r):
///   * engine.{wormhole,vct} — FlowSim wall time at offered load 0.9
///     with 4-flit packets and 8-flit buffers, reported as simulated
///     cycles/sec (best of repetitions, deterministic work);
///   * margin.{thm3,dmodk,adaptive}_{wormhole,vct} — the
///     analysis::buffer_margin_sweep minimum buffer depth at which the
///     routing sustains the 0.9 probe (min_flits_nonblocking; 0 = no
///     probed depth sustains it).  The Theorem 3 routing is
///     contention-free, so its margin doubles as a verdict gate: the
///     regression checker fails the document if it reports 0.
/// Traffic is a seeded random permutation — shift permutations are
/// contention-free even under d-mod-k, so a random one is what
/// separates the guaranteed routings (Theorem 3 and the adaptive
/// schedule handle *any* permutation) from the d-mod-k baseline, which
/// collides and cannot sustain the probe.  The adaptive rows route the
/// permutation through the NONBLOCKINGADAPTIVE schedule (Fig. 4)
/// flattened to channel paths; pairs outside the permutation fall back
/// to Theorem 3 routes and never carry traffic.  Results are seeded and
/// bit-reproducible at any thread count.  Pass --quick for CI smoke
/// budgets, --threads <T> to cap the sweep worker pool.
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nbclos/adaptive/router.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/buffer_margin.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/util/json.hpp"
#include "nbclos/util/thread_pool.hpp"

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

constexpr int kTimingReps = 3;

/// Flatten the NONBLOCKINGADAPTIVE schedule for `pattern` into a channel
/// cache: scheduled pairs take their adaptive path, everything else (no
/// traffic under this pattern) falls back to the Theorem 3 route.
std::shared_ptr<const nbclos::routing::ChannelRouteCache> make_adaptive_cache(
    const nbclos::FoldedClos& ft, const nbclos::Network& net,
    const nbclos::YuanNonblockingRouting& fallback,
    const std::vector<nbclos::SDPair>& pattern) {
  const nbclos::adaptive::AdaptiveParams params =
      nbclos::adaptive::AdaptiveParams::from(ft);
  const nbclos::adaptive::NonblockingAdaptiveRouter router(params);
  const auto schedule = router.route(pattern);
  if (schedule.top_switches_used > ft.m()) {
    std::cerr << "adaptive schedule needs " << schedule.top_switches_used
              << " top switches but ftree has " << ft.m() << "\n";
    std::exit(1);
  }
  const auto paths = schedule.to_paths(ft);
  std::unordered_map<std::uint64_t, nbclos::FtreePath> scheduled;
  const std::uint64_t leafs = ft.leaf_count();
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    scheduled.emplace(pattern[i].src.value * leafs + pattern[i].dst.value,
                      paths[i]);
  }
  return std::make_shared<const nbclos::routing::ChannelRouteCache>(
      net, [&, scheduled = std::move(scheduled)](nbclos::SDPair sd) {
        const auto hit = scheduled.find(sd.src.value * leafs + sd.dst.value);
        const nbclos::FtreePath path =
            hit != scheduled.end() ? hit->second : fallback.route(sd);
        nbclos::LinkId run[nbclos::FoldedClos::kMaxPathLinks];
        const auto count = ft.links_into(path, run);
        std::vector<std::uint32_t> channels;
        for (std::uint32_t i = 0; i < count; ++i) {
          channels.push_back(run[i].value);
        }
        return channels;
      });
}

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

  // The quick budgets keep every timed engine section in the
  // milliseconds range so the regression ratios stay timer-noise-free.
  const std::uint64_t warmup = quick ? 300 : 1000;
  const std::uint64_t measure = quick ? 1500 : 6000;
  const std::vector<std::uint32_t> depths =
      quick ? std::vector<std::uint32_t>{1, 2, 4, 8}
            : std::vector<std::uint32_t>{1, 2, 4, 8, 16};

  nbclos::JsonWriter json(std::cout);
  json.begin_object();
  json.member("experiment", "flow");
  json.member("quick", quick);
  json.member("hardware_concurrency",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.member("warmup_cycles", warmup);
  json.member("measure_cycles", measure);

  const std::vector<std::uint32_t> radices = {8, 16};
  json.key("cases").begin_array();
  for (const auto r : radices) {
    const std::uint32_t n = 4;
    const nbclos::FoldedClos ft(nbclos::FtreeParams{n, n * n, r});
    const auto net = nbclos::build_network(ft);
    const nbclos::YuanNonblockingRouting yuan(ft);
    const nbclos::DModKRouting dmodk(ft);
    // Fixed-point-free (seeded) random permutation.  random_permutation
    // drops self-pairs, so a fixed point leaves its terminal with no
    // destination at all — it never injects, diluting accepted
    // throughput below the sustain fraction on every routing and
    // masking the margin.  A full-size pattern is a derangement.
    nbclos::Xoshiro256 pattern_rng(7);
    auto pattern = nbclos::random_permutation(ft.leaf_count(), pattern_rng);
    while (pattern.size() < ft.leaf_count()) {
      pattern = nbclos::random_permutation(ft.leaf_count(), pattern_rng);
    }
    const auto traffic =
        nbclos::sim::TrafficPattern::permutation(pattern, ft.leaf_count());

    struct RoutingCase {
      const char* key;
      std::shared_ptr<const nbclos::routing::ChannelRouteCache> cache;
    };
    const std::vector<RoutingCase> routings = {
        {"thm3", nbclos::routing::ChannelRouteCache::materialize(net, yuan)},
        {"dmodk", nbclos::routing::ChannelRouteCache::materialize(net, dmodk)},
        {"adaptive", make_adaptive_cache(ft, net, yuan, pattern)},
    };

    json.begin_object();
    json.member("radix", r);
    json.member("topology", "ftree(" + std::to_string(n) + "+" +
                                std::to_string(n * n) + ", " +
                                std::to_string(r) + ")");
    json.member("leafs", ft.leaf_count());
    json.member("links", ft.link_count());

    // --- engine throughput: simulated cycles per wall second ----------
    json.key("engine").begin_object();
    for (const bool vct : {false, true}) {
      nbclos::flow::FlowConfig config;
      config.injection_rate = 0.9;
      config.packet_flits = 4;
      config.buffer_flits = 8;
      config.switching = vct ? nbclos::flow::Switching::kVirtualCutThrough
                             : nbclos::flow::Switching::kWormhole;
      config.warmup_cycles = warmup;
      config.measure_cycles = measure;
      nbclos::flow::FlowResult result;
      const double secs = best_seconds(kTimingReps, [&] {
        nbclos::flow::FlowSim sim(routings[0].cache, traffic, config);
        result = sim.run();
      });
      if (result.deadlocked) {
        std::cerr << "unexpected deadlock on the Theorem 3 routing\n";
        return 1;
      }
      const double cycles = static_cast<double>(warmup + measure);
      json.key(vct ? "vct" : "wormhole").begin_object();
      json.member("seconds", secs);
      json.member("cycles_per_sec", cycles / secs);
      json.member("accepted_throughput", result.accepted_throughput);
      json.member("min_flow_throughput", result.min_flow_throughput);
      json.member("max_flow_throughput", result.max_flow_throughput);
      json.member("injected_packets", result.injected_packets);
      json.member("delivered_packets", result.delivered_packets);
      json.member("mean_latency", result.mean_latency);
      json.member("peak_buffer_flits", result.peak_buffer_flits);
      json.member("deadlocked", result.deadlocked);
      json.end_object();
    }
    json.end_object();

    // --- buffer margin: min flits/port for nonblocking throughput -----
    json.key("margin").begin_object();
    for (const auto& routing : routings) {
      for (const bool vct : {false, true}) {
        nbclos::analysis::BufferMarginConfig config;
        config.buffer_sizes = depths;
        config.probe_load = 0.9;
        config.base.packet_flits = 4;
        config.base.switching =
            vct ? nbclos::flow::Switching::kVirtualCutThrough
                : nbclos::flow::Switching::kWormhole;
        config.base.warmup_cycles = warmup;
        config.base.measure_cycles = measure;
        config.base.seed = 42;
        const auto sweep = nbclos::analysis::buffer_margin_sweep(
            routing.cache, traffic, config, &pool);
        json.key(std::string(routing.key) + (vct ? "_vct" : "_wormhole"))
            .begin_object();
        json.member("min_flits_nonblocking", sweep.min_flits_nonblocking);
        json.key("points").begin_array();
        for (const auto& point : sweep.points) {
          json.begin_object();
          json.member("buffer_flits", point.buffer_flits);
          json.member("feasible", point.feasible);
          json.member("sustained", point.sustained);
          json.member("accepted_throughput", point.accepted_throughput);
          json.member("deadlocked", point.deadlocked);
          json.member("credit_stall_cycles", point.credit_stall_cycles);
          json.member("peak_buffer_flits", point.peak_buffer_flits);
          json.end_object();
        }
        json.end_array();
        json.end_object();
      }
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();

  manifest.wall_seconds = seconds_since(wall_start);
  json.key("manifest");
  manifest.write_json(json);
  json.end_object();
  std::cout << "\n";
  return 0;
}
