/// \file bench_flow_mt.cpp
/// \brief Sharded flow-control engine scaling and buffer-margin studies
///        past radix 16: cycles/sec at 1/2/4/8 shards, bit-identity
///        verdict per shard count, and the early-exit bisection margins
///        (wormhole + VCT) on radix-32/48 fabrics and a 10-ary 4-tree.
///
/// One JSON document on stdout (schema "flow_mt" in EXPERIMENTS.md).
/// For each topology case the harness:
///   * times serial `FlowSim` (counter injection) as the reference and
///     reports simulated cycles/sec;
///   * times `ShardedFlowSim` at 1, 2, 4, and 8 shards and compares
///     every FlowResult field against the serial run (bit-exact,
///     doubles included) — `identical_to_serial: false` is a
///     correctness regression and the bench exits nonzero on it, even
///     without the baseline gate.  `speedup_vs_serial` is reported for
///     measurement, never gated: CI runners may expose a single
///     hardware thread, where the epoch barriers can only cost;
///   * finds the buffer margin (min flits/port sustaining the 0.9
///     probe) with `analysis::buffer_margin_bisect` — O(log N) sharded
///     probes instead of the full sweep, which is what keeps radix 32
///     inside the quick budget.
/// A scale section then probes 10-ary trees with pure O(1) dmodk
/// routing and the lazy slab arenas — bytes/terminal, slab residency,
/// and cycles/sec per tree, gated against a committed
/// budget — quick stops at 10^4 terminals, full climbs to the
/// 10^6-terminal 10-ary 6-tree (serial only) and reruns the margin
/// bisection on the 10-ary 5-tree.  A final recorder_overhead section
/// times the flight recorder live vs paused on a serial run (< 5%
/// budget) and checks that the merged invariant time-series is
/// bit-identical at every shard count.
///
/// --quick runs the radix-32 ftree only; the full run adds radix 48 and
/// the 10-ary 4-tree (10,000 terminals).  Traffic is a seeded
/// random derangement on ftree fabrics (the pattern that separates
/// guaranteed routings from colliding ones) and a shift permutation on
/// the k-ary tree.  Results are seeded and bit-reproducible.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/buffer_margin.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/flow/sharded.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/json.hpp"

namespace {

using namespace nbclos;

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

/// Every FlowResult field — the same contract the golden tests assert
/// with EXPECT_EQ, restated as one predicate for the bench verdict.
bool identical(const flow::FlowResult& a, const flow::FlowResult& b) {
  return a.offered_load == b.offered_load &&
         a.accepted_throughput == b.accepted_throughput &&
         a.mean_latency == b.mean_latency && a.p50_latency == b.p50_latency &&
         a.p99_latency == b.p99_latency && a.p999_latency == b.p999_latency &&
         a.latency_bucket_width == b.latency_bucket_width &&
         a.injected_packets == b.injected_packets &&
         a.delivered_packets == b.delivered_packets &&
         a.dropped_packets == b.dropped_packets &&
         a.mean_switch_queue_depth == b.mean_switch_queue_depth &&
         a.min_flow_throughput == b.min_flow_throughput &&
         a.max_flow_throughput == b.max_flow_throughput &&
         a.credit_stall_cycles == b.credit_stall_cycles &&
         a.vc_stall_cycles == b.vc_stall_cycles &&
         a.mean_stall_cycles == b.mean_stall_cycles &&
         a.p99_stall_cycles == b.p99_stall_cycles &&
         a.peak_buffer_flits == b.peak_buffer_flits &&
         a.peak_live_packets == b.peak_live_packets &&
         a.deadlocked == b.deadlocked &&
         a.deadlock_cycle == b.deadlock_cycle &&
         a.stuck_flits == b.stuck_flits;
}

struct Case {
  std::string name;
  std::uint32_t ftree_r = 0;           ///< ftree(4+16, r) when nonzero
  std::uint32_t kary_k = 0, kary_h = 0;  ///< k-ary h-tree otherwise
  std::uint64_t warmup = 0, measure = 0;
  double rate = 0.9;
  std::vector<std::uint32_t> depths;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  auto manifest = obs::RunInfo::current();
  manifest.seed = 20260809;
  manifest.threads = 8;  // widest shard fan-out benched
  manifest.shards = 8;

  std::vector<Case> cases;
  cases.push_back({"ftree(4+16,32)", 32, 0, 0, 200, 800, 0.9,
                   {1, 2, 4, 8, 16}});
  if (!quick) {
    cases.push_back({"ftree(4+16,48)", 48, 0, 0, 300, 1200, 0.9,
                     {1, 2, 4, 8, 16}});
    // 10-ary 4-tree: 10,000 terminals at low load — the point is shard
    // scaling of the flit arenas, not saturation throughput.
    cases.push_back({"kary(10,4)", 0, 10, 4, 50, 200, 0.1, {2, 4, 8}});
  }
  const std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};

  JsonWriter json(std::cout);
  json.begin_object();
  json.member("experiment", "flow_mt");
  json.member("quick", quick);
  json.member("hardware_concurrency",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()));

  bool all_identical = true;
  json.key("cases").begin_array();
  for (const auto& c : cases) {
    const bool is_ftree = c.ftree_r > 0;
    std::unique_ptr<FoldedClos> ftree;
    std::unique_ptr<YuanNonblockingRouting> yuan;
    Network net = [&] {
      if (is_ftree) {
        ftree = std::make_unique<FoldedClos>(FtreeParams{4, 16, c.ftree_r});
        return build_network(*ftree);
      }
      return build_kary_ntree(c.kary_k, c.kary_h);
    }();
    std::shared_ptr<const routing::ChannelRouteCache> cache;
    std::uint32_t terminals = 0;
    if (is_ftree) {
      yuan = std::make_unique<YuanNonblockingRouting>(*ftree);
      cache = routing::ChannelRouteCache::materialize(net, *yuan);
      terminals = ftree->leaf_count();
    } else {
      const sim::KaryDmodkRouter router(net, c.kary_k, c.kary_h);
      cache = std::make_shared<const routing::ChannelRouteCache>(
          net, [&](SDPair sd) {
            std::vector<std::uint32_t> path;
            routing::walk_path(router, sd.src.value, sd.dst.value, path);
            return path;
          });
      terminals = static_cast<std::uint32_t>(net.terminals().size());
    }
    const auto traffic = [&] {
      if (is_ftree) {
        // Fixed-point-free random permutation (see bench_flow.cpp: a
        // fixed point would leave its terminal silent and dilute the
        // sustain fraction).
        Xoshiro256 pattern_rng(7);
        auto pattern = random_permutation(terminals, pattern_rng);
        while (pattern.size() < terminals) {
          pattern = random_permutation(terminals, pattern_rng);
        }
        return sim::TrafficPattern::permutation(pattern, terminals);
      }
      return sim::TrafficPattern::permutation(
          shift_permutation(terminals, 5), terminals);
    }();

    flow::FlowConfig config;
    config.injection_rate = c.rate;
    config.packet_flits = 4;
    config.buffer_flits = 8;
    config.warmup_cycles = c.warmup;
    config.measure_cycles = c.measure;
    config.seed = manifest.seed;
    config.counter_injection = true;
    const double total_cycles = static_cast<double>(c.warmup + c.measure);

    json.begin_object();
    json.member("topology", c.name);
    json.member("radix", c.ftree_r);
    json.member("terminals", terminals);
    json.member("channels", static_cast<std::uint64_t>(net.channel_count()));
    json.member("injection_rate", c.rate);
    json.member("warmup_cycles", c.warmup);
    json.member("measure_cycles", c.measure);
    json.member("route_cache_bytes",
                static_cast<std::uint64_t>(cache->bytes()));

    // --- serial reference: the identity baseline and the speedup denom.
    flow::FlowResult serial{};
    const double serial_secs = best_seconds(kTimingReps, [&] {
      flow::FlowSim sim(cache, traffic, config);
      serial = sim.run();
    });
    json.key("serial").begin_object();
    json.member("seconds", serial_secs);
    json.member("cycles_per_sec", total_cycles / serial_secs);
    json.member("accepted_throughput", serial.accepted_throughput);
    json.member("delivered_packets", serial.delivered_packets);
    json.member("deadlocked", serial.deadlocked);
    json.end_object();

    json.key("shard_counts").begin_array();
    for (const auto shards : shard_counts) {
      flow::FlowResult result{};
      flow::ShardedFlowSim::Telemetry telemetry{};
      std::size_t arena_bytes = 0;
      const double secs = best_seconds(kTimingReps, [&] {
        flow::ShardedFlowSim sim(cache, traffic, config, shards);
        result = sim.run();
        telemetry = sim.telemetry();
        arena_bytes = sim.arena_bytes();
      });
      const bool same = identical(result, serial);
      if (!same) {
        std::cerr << c.name << " at " << shards
                  << " shards diverged from the serial FlowSim run\n";
        all_identical = false;
      }
      json.begin_object();
      json.member("shards", static_cast<std::uint64_t>(shards));
      json.member("seconds", secs);
      json.member("cycles_per_sec", total_cycles / secs);
      json.member("speedup_vs_serial", serial_secs / secs);
      json.member("arena_bytes", static_cast<std::uint64_t>(arena_bytes));
      json.member("cross_shard_flits", telemetry.cross_shard_flits);
      json.member("cross_shard_credits", telemetry.cross_shard_credits);
      json.member("mailbox_peak", telemetry.mailbox_peak);
      json.member("accepted_throughput", result.accepted_throughput);
      json.member("delivered_packets", result.delivered_packets);
      json.member("peak_buffer_flits", result.peak_buffer_flits);
      json.member("identical_to_serial", same);
      json.end_object();
    }
    json.end_array();

    // --- buffer margin past radix 16: O(log N) sharded bisection ------
    json.key("margin").begin_object();
    for (const bool vct : {false, true}) {
      analysis::BufferMarginConfig margin;
      margin.buffer_sizes = c.depths;
      margin.probe_load = c.rate;
      margin.base = config;
      margin.base.switching = vct ? flow::Switching::kVirtualCutThrough
                                  : flow::Switching::kWormhole;
      const auto bisect =
          analysis::buffer_margin_bisect(cache, traffic, margin, 8);
      json.key(vct ? "vct" : "wormhole").begin_object();
      json.member("min_flits_nonblocking", bisect.min_flits_nonblocking);
      json.member("probes",
                  static_cast<std::uint64_t>(bisect.points.size()));
      json.key("points").begin_array();
      for (const auto& point : bisect.points) {
        json.begin_object();
        json.member("buffer_flits", point.buffer_flits);
        json.member("feasible", point.feasible);
        json.member("sustained", point.sustained);
        json.member("accepted_throughput", point.accepted_throughput);
        json.member("deadlocked", point.deadlocked);
        json.member("peak_buffer_flits", point.peak_buffer_flits);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.member("shards", std::uint64_t{8});
    json.end_object();

    json.member("peak_rss_kb", obs::peak_rss_kb());
    json.end_object();
  }
  json.end_array();

  // --- flow-level scale-out: sparse arenas on 10-ary trees -------------
  // Pure O(1) dmodk routing (no per-pair table) plus the lazy slab
  // arenas are what let a 10^6-terminal fabric run at all; this section
  // records bytes/terminal, slab residency, and cycles/sec so the gate
  // catches a densification regression.  Short low-load windows — the
  // point is memory shape, not saturation behavior.
  {
    // Committed ceiling for (flit + packet arena bytes) / terminal at
    // the largest tree; see EXPERIMENTS.md for the derivation.
    constexpr double kScaleBudgetBytesPerTerminal = 256.0;
    struct ScalePoint {
      std::uint32_t k, h;
      bool identity;  ///< also run ShardedFlowSim(4) and compare
    };
    std::vector<ScalePoint> points = {{10, 3, true}, {10, 4, true}};
    if (!quick) {
      points.push_back({10, 5, true});
      points.push_back({10, 6, false});  // serial only: memory headroom
    }
    json.key("scale").begin_object();
    json.member("budget_bytes_per_terminal", kScaleBudgetBytesPerTerminal);
    json.key("points").begin_array();
    for (const auto& p : points) {
      const Network net = build_kary_ntree(p.k, p.h);
      const auto terminals =
          static_cast<std::uint32_t>(net.terminals().size());
      const auto routes =
          std::make_shared<const sim::KaryDmodkRouter>(net, p.k, p.h);
      const auto traffic = sim::TrafficPattern::permutation(
          shift_permutation(terminals, 7), terminals);
      flow::FlowConfig config;
      config.injection_rate = 0.05;
      config.packet_flits = 4;
      config.buffer_flits = 8;
      config.warmup_cycles = 20;
      config.measure_cycles = 80;
      config.seed = manifest.seed;
      config.counter_injection = true;
      const double total_cycles =
          static_cast<double>(config.warmup_cycles + config.measure_cycles);

      // One timed run per point: a 10^6-terminal probe is too large for
      // best-of-3, and the memory numbers are deterministic anyway.
      flow::FlowResult serial{};
      flow::ArenaStats stats{};
      const auto t0 = std::chrono::steady_clock::now();
      {
        flow::FlowSim sim(routes, traffic, config);
        serial = sim.run();
        stats = sim.arena_stats();
      }
      const double secs = seconds_since(t0);
      const double bytes_per_terminal =
          static_cast<double>(stats.flit_arena_bytes +
                              stats.packet_arena_bytes) /
          static_cast<double>(terminals);
      const bool within =
          bytes_per_terminal <= kScaleBudgetBytesPerTerminal;
      if (!within) {
        std::cerr << "kary(" << p.k << "," << p.h << ") arenas at "
                  << bytes_per_terminal
                  << " bytes/terminal exceed the committed budget\n";
        all_identical = false;
      }
      bool same = true;
      if (p.identity) {
        flow::ShardedFlowSim sharded(routes, traffic, config, 4);
        same = identical(sharded.run(), serial);
        if (!same) {
          std::cerr << "kary(" << p.k << "," << p.h
                    << ") sharded run diverged from serial at scale\n";
          all_identical = false;
        }
      }
      json.begin_object();
      json.member("topology", "kary(" + std::to_string(p.k) + "," +
                                  std::to_string(p.h) + ")");
      json.member("terminals", terminals);
      json.member("channels",
                  static_cast<std::uint64_t>(net.channel_count()));
      json.member("route_source", routes->name());
      json.member("route_bytes", static_cast<std::uint64_t>(routes->bytes()));
      json.member("seconds", secs);
      json.member("cycles_per_sec", total_cycles / secs);
      json.member("delivered_packets", serial.delivered_packets);
      json.member("deadlocked", serial.deadlocked);
      json.member("flit_arena_bytes",
                  static_cast<std::uint64_t>(stats.flit_arena_bytes));
      json.member("packet_arena_bytes",
                  static_cast<std::uint64_t>(stats.packet_arena_bytes));
      json.member("bytes_per_terminal", bytes_per_terminal);
      json.member("resident_slots", stats.resident_slots);
      json.member("peak_slots", stats.peak_slots);
      json.member("within_budget", within);
      json.member("identity_checked", p.identity);
      json.member("identical_to_serial", same);
      json.member("peak_rss_kb", obs::peak_rss_kb());
      json.end_object();
    }
    json.end_array();

    // Margin bisection rerun at the new scale: the 10-ary 5-tree margin
    // via sharded probes over the pure route source (full mode only —
    // each probe is a 10^5-terminal run).
    if (!quick) {
      const std::uint32_t k = 10, h = 5;
      const Network net = build_kary_ntree(k, h);
      const auto terminals =
          static_cast<std::uint32_t>(net.terminals().size());
      const auto routes =
          std::make_shared<const sim::KaryDmodkRouter>(net, k, h);
      const auto traffic = sim::TrafficPattern::permutation(
          shift_permutation(terminals, 7), terminals);
      analysis::BufferMarginConfig margin;
      margin.buffer_sizes = {2, 4, 8};
      margin.probe_load = 0.1;
      margin.base.packet_flits = 4;
      margin.base.warmup_cycles = 20;
      margin.base.measure_cycles = 80;
      margin.base.seed = manifest.seed;
      const auto bisect =
          analysis::buffer_margin_bisect(routes, traffic, margin, 4);
      json.key("margin_kary_10_5").begin_object();
      json.member("min_flits_nonblocking", bisect.min_flits_nonblocking);
      json.member("probes", static_cast<std::uint64_t>(bisect.points.size()));
      json.end_object();
    }
    json.end_object();
  }

  // --- flight-recorder overhead and shard-count series identity --------
  // Serial FlowSim with the recorder armed, sampling live vs paused via
  // the runtime switch (budget < 5%), then the sharded engine at every
  // shard count checking the merged invariant series against serial bit
  // for bit — the time-series analogue of identical_to_serial above.
  {
    const FoldedClos ftree(FtreeParams{4, 16, 16});
    const Network net = build_network(ftree);
    const YuanNonblockingRouting yuan(ftree);
    const auto cache = routing::ChannelRouteCache::materialize(net, yuan);
    const auto terminals = ftree.leaf_count();
    const auto traffic = sim::TrafficPattern::permutation(
        shift_permutation(terminals, 5), terminals);
    flow::FlowConfig config;
    config.injection_rate = 0.8;
    config.packet_flits = 4;
    config.buffer_flits = 8;
    config.warmup_cycles = 200;
    config.measure_cycles = quick ? 800 : 4000;
    config.seed = manifest.seed;
    config.counter_injection = true;
    config.record_timeseries = true;
    config.record_cadence = 32;

    flow::FlowResult serial{};
    std::vector<obs::MergedSeries> serial_series;
    const auto run_serial = [&] {
      flow::FlowSim sim(cache, traffic, config);
      serial = sim.run();
      serial_series.clear();
      for (auto& series : sim.recorder().merged()) {
        if (series.scope == obs::SeriesScope::kInvariant) {
          serial_series.push_back(std::move(series));
        }
      }
    };
    obs::set_enabled(true);
    const double on_secs = best_seconds(kTimingReps, run_serial);
    const auto on_result = serial;
    std::size_t points = 0;
    for (const auto& series : serial_series) points += series.points.size();
    const auto golden = serial_series;
    obs::set_enabled(false);  // want() goes false: sampling pauses
    const double off_secs = best_seconds(kTimingReps, run_serial);
    obs::set_enabled(true);
    const bool same_result = identical(on_result, serial);
    if (!same_result) {
      std::cerr << "recorder on/off changed the flow engine result\n";
      all_identical = false;
    }

    json.key("recorder_overhead").begin_object();
    json.member("compiled_in", obs::kEnabled);
    json.member("cycles", config.warmup_cycles + config.measure_cycles);
    json.member("enabled_seconds", on_secs);
    json.member("paused_seconds", off_secs);
    json.member("overhead_pct", (on_secs / off_secs - 1.0) * 100.0);
    json.member("points_recorded", static_cast<std::uint64_t>(points));
    json.member("results_identical", same_result);
    json.key("series_identity").begin_array();
    for (const auto shards : shard_counts) {
      flow::ShardedFlowSim sim(cache, traffic, config, shards);
      const auto result = sim.run();
      std::vector<obs::MergedSeries> got;
      for (auto& series : sim.recorder().merged()) {
        if (series.scope == obs::SeriesScope::kInvariant) {
          got.push_back(std::move(series));
        }
      }
      bool same_series = identical(result, on_result) &&
                         got.size() == golden.size();
      for (std::size_t i = 0; same_series && i < golden.size(); ++i) {
        same_series = got[i].name == golden[i].name &&
                      got[i].stride_cycles == golden[i].stride_cycles &&
                      got[i].points == golden[i].points;
      }
      if (!same_series) {
        std::cerr << "merged time-series diverged at " << shards
                  << " shards\n";
        all_identical = false;
      }
      json.begin_object();
      json.member("shards", static_cast<std::uint64_t>(shards));
      json.member("identical_to_serial", same_series);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  manifest.wall_seconds = seconds_since(wall_start);
  manifest.peak_rss_kb = obs::peak_rss_kb();
  json.key("manifest");
  manifest.write_json(json);
  json.end_object();
  std::cout << "\n";
  return all_identical ? 0 : 1;
}
