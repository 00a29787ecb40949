/// \file bench_fault.cpp
/// \brief Degraded-operation experiment: accepted throughput of the
///        Theorem 3 fabric as uplink failures accumulate.
///
/// ftree(4+16, 8) under a shift permutation at high offered load, routed
/// by the fault-tolerant table oracle (Theorem 3 primary assignment,
/// least-loaded live fallback).  Each failure level fails a seed-fixed,
/// nested set of bottom<->top link pairs; the pristine run is the
/// baseline.  Levels run concurrently over a ThreadPool via
/// analysis::run_fault_throughput_sweep — each level is independently
/// seeded, so output is byte-identical at any thread count.  Emits a
/// single JSON document on stdout so downstream tooling can diff
/// degraded-vs-pristine throughput across levels.
///
/// It is a check too, and exits 1 unless its claim holds: the pristine
/// run neither reroutes nor drops and accepts >= 95% of the offered load,
/// every faulted level reroutes and drops nothing, and with up to 32
/// failed pairs throughput stays within 1% of pristine.
#include <chrono>
#include <iostream>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/sweep.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/util/json.hpp"

int main() {
  constexpr std::uint32_t kN = 4;
  constexpr std::uint32_t kR = 8;
  constexpr double kLoad = 0.9;
  constexpr std::uint64_t kFaultSeed = 97;

  const nbclos::FoldedClos ftree(nbclos::FtreeParams{kN, kN * kN, kR});
  const auto net = nbclos::build_network(ftree);
  const auto pattern =
      nbclos::shift_permutation(ftree.leaf_count(), kN + 1);
  const auto traffic =
      nbclos::sim::TrafficPattern::permutation(pattern, ftree.leaf_count());
  const nbclos::YuanNonblockingRouting yuan(ftree);

  nbclos::sim::SimConfig config;
  config.injection_rate = kLoad;
  config.warmup_cycles = 1500;
  config.measure_cycles = 6000;
  config.seed = 11;

  // 0..64 of the 128 bottom<->top pairs; the heavy levels push past what
  // least-loaded fallback can absorb so the degradation becomes visible.
  const std::vector<std::uint32_t> levels{0, 4, 8, 16, 32, 64};
  const auto wall_start = std::chrono::steady_clock::now();
  nbclos::ThreadPool pool;
  const auto results = nbclos::analysis::run_fault_throughput_sweep(
      ftree, net, yuan, traffic, config, levels, kFaultSeed, &pool);

  auto manifest = nbclos::obs::RunInfo::current();
  manifest.seed = kFaultSeed;
  manifest.threads = static_cast<std::uint32_t>(pool.thread_count());
  manifest.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const double pristine = results.front().sim.accepted_throughput;
  const auto vs_pristine = [&](const auto& level) {
    return pristine > 0.0 ? level.sim.accepted_throughput / pristine : 0.0;
  };
  bool claim_holds = true;
  for (const auto& level : results) {
    const bool pristine_level = level.failures == 0;
    const bool holds =
        level.sim.dropped_packets == 0 &&
        (pristine_level
             ? level.reroutes == 0 && !level.sim.saturated()
             : level.reroutes > 0 &&
                   (level.failures > 32 || vs_pristine(level) >= 0.99));
    if (!holds) {
      std::cerr << "bench_fault: claim fails at " << level.failures
                << " failed uplink pairs\n";
    }
    claim_holds = claim_holds && holds;
  }
  nbclos::JsonWriter json(std::cout);
  json.begin_object();
  json.member("experiment", "fault_degradation");
  const std::string topology = "ftree(" + std::to_string(kN) + "+" +
                               std::to_string(kN * kN) + ", " +
                               std::to_string(kR) + ")";
  json.member("topology", topology);
  json.member("routing", "ftree-fault-table (Theorem 3 primary)");
  json.member("traffic", "shift permutation");
  json.member("offered_load", kLoad);
  json.member("fault_seed", kFaultSeed);
  json.member("pristine_accepted_throughput", pristine);
  json.key("levels").begin_array();
  for (const auto& level : results) {
    json.begin_object();
    json.member("failed_uplink_pairs", level.failures);
    json.member("accepted_throughput", level.sim.accepted_throughput);
    json.member("throughput_vs_pristine", vs_pristine(level));
    json.member("mean_latency", level.sim.mean_latency);
    json.member("dropped_packets", level.sim.dropped_packets);
    json.member("reroutes", level.reroutes);
    json.end_object();
  }
  json.end_array();
  json.member("claim_holds", claim_holds);
  json.key("manifest");
  manifest.write_json(json);
  json.end_object();
  std::cout << "\n";
  return claim_holds ? 0 : 1;
}
