/// \file bench_scale_mt.cpp
/// \brief Million-terminal sharded-simulation scaling: terminals/sec and
///        bytes/terminal at 1 / 2 / 4 / 8 shards on ftree and k-ary
///        n-tree fabrics.
///
/// One JSON document on stdout (schema in EXPERIMENTS.md, experiment
/// "scale_mt").  For each topology case the harness runs the identical
/// workload — shift-permutation traffic, counter-injection RNG — through
/// `ShardedSim` at every shard count and reports:
///   * seconds           — best wall time over the reps (arena build +
///     full warmup/measure run; construction is part of the cost at
///     10^6 terminals and is deliberately inside the clock);
///   * terminals_per_sec — terminal-cycles simulated per second,
///     terminals x total_cycles / seconds;
///   * bytes_per_terminal — per-shard arena footprint over terminals;
///   * cross_shard_flits / accepted_throughput — engine telemetry;
///   * identical_to_single_shard — every SimResult field of the k-shard
///     run compared (bit-exact, doubles included) against the 1-shard
///     run.  A `false` here is a correctness regression, and the bench
///     itself exits nonzero so CI fails even without the baseline gate.
/// The per-case and manifest peak_rss_kb are sampled *after* the arenas
/// ran (the high-water mark is monotone; early sampling under-reports).
///
/// --quick keeps CI to small fabrics; the full run ends on the
/// kary(10, 6) fabric — one million terminals — at low offered load.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/sharded.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/json.hpp"

namespace {

using namespace nbclos;
using namespace nbclos::sim;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A topology case: either ftree(n + m, r) or a k-ary h-tree, with the
/// sim budget scaled to its size.
struct Case {
  std::string name;
  std::uint32_t ftree_n = 0, ftree_m = 0, ftree_r = 0;  // ftree when r > 0
  std::uint32_t kary_k = 0, kary_h = 0;                 // k-ary otherwise
  std::uint64_t warmup = 0, measure = 0;
  double rate = 0.0;
  std::uint32_t queue_capacity = 8;
  int reps = 3;
};

bool identical(const SimResult& a, const SimResult& b) {
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
         a.max_flow_throughput == b.max_flow_throughput;
}

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
  cases.push_back({"ftree(4+16,8)", 4, 16, 8, 0, 0, 400, 1600, 0.6, 8, 3});
  cases.push_back({"kary(4,5)", 0, 0, 0, 4, 5, 200, 800, 0.4, 8, 3});
  if (!quick) {
    cases.push_back({"kary(16,4)", 0, 0, 0, 16, 4, 100, 400, 0.2, 8, 2});
    // One million terminals: low load, short window, shallow queues —
    // the point is arena scale and epoch overhead, not saturation.
    cases.push_back({"kary(10,6)", 0, 0, 0, 10, 6, 50, 200, 0.1, 4, 1});
  }
  const std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};

  JsonWriter json(std::cout);
  json.begin_object();
  json.member("experiment", "scale_mt");
  json.member("quick", quick);
  json.member("hardware_concurrency",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()));

  bool all_identical = true;
  json.key("cases").begin_array();
  for (const auto& c : cases) {
    const bool is_ftree = c.ftree_r > 0;
    std::unique_ptr<FoldedClos> ftree;
    Network net = [&] {
      if (is_ftree) {
        ftree = std::make_unique<FoldedClos>(
            FtreeParams{c.ftree_n, c.ftree_m, c.ftree_r});
        return build_network(*ftree);
      }
      return build_kary_ntree(c.kary_k, c.kary_h);
    }();
    std::unique_ptr<routing::NextHop> router;
    if (is_ftree) {
      router = std::make_unique<routing::TopChoiceNextHop>(
          std::make_shared<const DModKRouting>(*ftree), net);
    } else {
      router = std::make_unique<KaryDmodkRouter>(net, c.kary_k, c.kary_h);
    }
    const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
    const auto traffic =
        TrafficPattern::permutation(shift_permutation(terminals, 5), terminals);

    SimConfig config;
    config.injection_rate = c.rate;
    config.warmup_cycles = c.warmup;
    config.measure_cycles = c.measure;
    config.queue_capacity = c.queue_capacity;
    config.seed = manifest.seed;
    config.counter_injection = true;
    const std::uint64_t total_cycles = c.warmup + c.measure;

    json.begin_object();
    json.member("topology", c.name);
    json.member("terminals", terminals);
    json.member("channels", static_cast<std::uint64_t>(net.channel_count()));
    json.member("injection_rate", c.rate);
    json.member("warmup_cycles", c.warmup);
    json.member("measure_cycles", c.measure);
    json.member("queue_capacity", static_cast<std::uint64_t>(c.queue_capacity));

    SimResult single{};
    json.key("shard_counts").begin_array();
    for (const auto shards : shard_counts) {
      double best = std::numeric_limits<double>::infinity();
      SimResult result{};
      ShardedSim::Telemetry telemetry{};
      std::size_t arena_bytes = 0;
      for (int rep = 0; rep < c.reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        ShardedSim sim(*router, traffic, config, shards);
        result = sim.run();
        const double secs = seconds_since(t0);
        if (secs < best) best = secs;
        telemetry = sim.telemetry();
        arena_bytes = sim.arena_bytes();
      }
      if (shards == 1) single = result;
      const bool same = identical(result, single);
      if (!same) {
        std::cerr << c.name << " at " << shards
                  << " shards diverged from the single-shard run\n";
        all_identical = false;
      }
      json.begin_object();
      json.member("shards", static_cast<std::uint64_t>(shards));
      json.member("seconds", best);
      json.member("terminals_per_sec",
                  static_cast<double>(terminals) *
                      static_cast<double>(total_cycles) / best);
      json.member("bytes_per_terminal",
                  static_cast<double>(arena_bytes) /
                      static_cast<double>(terminals));
      json.member("cross_shard_flits", telemetry.cross_shard_flits);
      json.member("mailbox_peak", telemetry.mailbox_peak);
      json.member("accepted_throughput", result.accepted_throughput);
      json.member("delivered_packets", result.delivered_packets);
      json.member("identical_to_single_shard", same);
      json.end_object();
    }
    json.end_array();
    json.member("peak_rss_kb", obs::peak_rss_kb());
    json.end_object();
  }
  json.end_array();

  manifest.wall_seconds = seconds_since(wall_start);
  manifest.peak_rss_kb = obs::peak_rss_kb();  // after every arena existed
  json.key("manifest");
  manifest.write_json(json);
  json.end_object();
  std::cout << "\n";
  return all_identical ? 0 : 1;
}
