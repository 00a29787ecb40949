/// \file bench_simcore.cpp
/// \brief Simulator hot-path throughput: wall-clock cycles/sec and
///        packets/sec of the cycle kernel on ftree(4+16, 8).
///
/// Measures the engine itself, not the fabric: one PacketSim per load
/// level, Theorem 3 table routing under a shift permutation.  The low
/// load (0.1) exercises the active-channel lists where per-cycle cost is
/// proportional to resident packets; the high load (0.9) approaches the
/// dense regime where most channels stay busy.  Emits one JSON document
/// on stdout (with a build/run manifest; schema in EXPERIMENTS.md); pass
/// --cycles <N> to shrink the measured window (CI smoke runs).
///
/// The obs_overhead section reruns the middle load with metric recording
/// enabled vs paused (obs::set_enabled) and reports the relative cost of
/// live instrumentation — the acceptance budget is < 2%.  Both runs must
/// produce field-identical SimResults (instrumentation never feeds back
/// into the engine); a mismatch fails the bench.  The compiled-off cost
/// is measured separately by building with -DNBCLOS_OBS=OFF.
///
/// The recorder_overhead section does the same comparison with the
/// flight recorder armed (record_timeseries) — sampling live vs paused
/// via the runtime switch — with an acceptance budget of < 5%.
///
/// Simulation results are seeded and bit-reproducible; the timings, of
/// course, are not.
#include <chrono>
#include <cstddef>
#include <iostream>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/util/json.hpp"

namespace {

bool same_result(const nbclos::sim::SimResult& a,
                 const nbclos::sim::SimResult& b) {
  return a.offered_load == b.offered_load &&
         a.accepted_throughput == b.accepted_throughput &&
         a.mean_latency == b.mean_latency && a.p50_latency == b.p50_latency &&
         a.p99_latency == b.p99_latency && a.p999_latency == b.p999_latency &&
         a.injected_packets == b.injected_packets &&
         a.delivered_packets == b.delivered_packets &&
         a.dropped_packets == b.dropped_packets &&
         a.mean_switch_queue_depth == b.mean_switch_queue_depth &&
         a.min_flow_throughput == b.min_flow_throughput &&
         a.max_flow_throughput == b.max_flow_throughput;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t measure_cycles = 498000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--cycles") {
      measure_cycles = std::stoull(argv[i + 1]);
    }
  }

  constexpr std::uint32_t kN = 4;
  constexpr std::uint32_t kR = 8;
  constexpr std::uint64_t kSeed = 11;
  const nbclos::FoldedClos ftree(nbclos::FtreeParams{kN, kN * kN, kR});
  const auto net = nbclos::build_network(ftree);
  const nbclos::YuanNonblockingRouting yuan(ftree);
  const auto pattern = nbclos::shift_permutation(ftree.leaf_count(), 5);
  const auto traffic =
      nbclos::sim::TrafficPattern::permutation(pattern, ftree.leaf_count());

  const auto run_once = [&](double load, std::uint64_t cycles) {
    nbclos::sim::SimConfig config;
    config.injection_rate = load;
    config.warmup_cycles = 2000;
    config.measure_cycles = cycles;
    config.seed = kSeed;
    nbclos::sim::FtreeOracle oracle(ftree, nbclos::sim::UplinkPolicy::kTable,
                                    &yuan);
    nbclos::sim::PacketSim sim(net, oracle, traffic, config);
    return sim.run();
  };

  const auto wall_start = std::chrono::steady_clock::now();
  auto manifest = nbclos::obs::RunInfo::current();
  manifest.seed = kSeed;
  manifest.threads = 1;

  nbclos::JsonWriter json(std::cout);
  json.begin_object();
  json.member("experiment", "simcore_throughput");
  const std::string topology = "ftree(" + std::to_string(kN) + "+" +
                               std::to_string(kN * kN) + ", " +
                               std::to_string(kR) + ")";
  json.member("topology", topology);
  json.member("routing", "ftree-table (Theorem 3)");
  json.member("traffic", "shift permutation");
  json.key("levels").begin_array();
  const double loads[] = {0.1, 0.5, 0.9};
  for (const double load : loads) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = run_once(load, measure_cycles);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double cycles = static_cast<double>(2000 + measure_cycles);
    json.begin_object();
    json.member("injection_rate", load);
    json.member("cycles", static_cast<std::uint64_t>(cycles));
    json.member("seconds", secs);
    json.member("cycles_per_sec", cycles / secs);
    json.member("packets_per_sec",
                static_cast<double>(result.delivered_packets) / secs);
    json.member("delivered_packets", result.delivered_packets);
    json.member("accepted_throughput", result.accepted_throughput);
    json.end_object();
  }
  json.end_array();

  // --- instrumentation overhead: metrics live vs paused ----------------
  {
    // Shorter window than the throughput levels (two extra runs each way)
    // but long enough that the per-cycle cost dominates setup.
    const std::uint64_t cycles = std::min<std::uint64_t>(measure_cycles,
                                                         100000);
    const double load = 0.5;
    const auto best_of = [&](int reps) {
      double best = std::numeric_limits<double>::infinity();
      nbclos::sim::SimResult result;
      result = run_once(load, cycles);  // warm-up, untimed
      for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = run_once(load, cycles);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        if (!same_result(r, result)) {
          std::cerr << "nondeterministic engine result\n";
          std::exit(1);
        }
        if (secs < best) best = secs;
      }
      return std::make_pair(best, result);
    };
    nbclos::obs::set_enabled(true);
    const auto [on_secs, on_result] = best_of(3);
    nbclos::obs::set_enabled(false);
    const auto [off_secs, off_result] = best_of(3);
    nbclos::obs::set_enabled(true);
    if (!same_result(on_result, off_result)) {
      std::cerr << "obs on/off changed the engine result\n";
      return 1;
    }
    json.key("obs_overhead").begin_object();
    json.member("compiled_in", nbclos::obs::kEnabled);
    json.member("cycles", cycles);
    json.member("enabled_seconds", on_secs);
    json.member("paused_seconds", off_secs);
    json.member("overhead_pct", (on_secs / off_secs - 1.0) * 100.0);
    json.member("results_identical", true);
    json.end_object();
  }

  // --- flight-recorder overhead: sampling live vs paused ---------------
  {
    const std::uint64_t cycles = std::min<std::uint64_t>(measure_cycles,
                                                         100000);
    const double load = 0.5;
    const auto run_recording = [&](double rate, std::uint64_t window) {
      nbclos::sim::SimConfig config;
      config.injection_rate = rate;
      config.warmup_cycles = 2000;
      config.measure_cycles = window;
      config.seed = kSeed;
      config.record_timeseries = true;
      nbclos::sim::FtreeOracle oracle(ftree, nbclos::sim::UplinkPolicy::kTable,
                                      &yuan);
      nbclos::sim::PacketSim sim(net, oracle, traffic, config);
      const auto result = sim.run();
      std::size_t points = 0;
      for (const auto& series : sim.recorder().merged()) {
        points += series.points.size();
      }
      return std::make_pair(result, points);
    };
    const auto best_of = [&](int reps) {
      double best = std::numeric_limits<double>::infinity();
      auto [result, points] = run_recording(load, cycles);  // warm-up
      for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto [r, p] = run_recording(load, cycles);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        if (!same_result(r, result) || p != points) {
          std::cerr << "nondeterministic recorder result\n";
          std::exit(1);
        }
        if (secs < best) best = secs;
      }
      return std::make_tuple(best, result, points);
    };
    nbclos::obs::set_enabled(true);
    const auto [on_secs, on_result, on_points] = best_of(3);
    nbclos::obs::set_enabled(false);  // want() goes false: sampling pauses
    const auto [off_secs, off_result, off_points] = best_of(3);
    nbclos::obs::set_enabled(true);
    if (!same_result(on_result, off_result)) {
      std::cerr << "recorder on/off changed the engine result\n";
      return 1;
    }
    json.key("recorder_overhead").begin_object();
    json.member("compiled_in", nbclos::obs::kEnabled);
    json.member("cycles", cycles);
    json.member("enabled_seconds", on_secs);
    json.member("paused_seconds", off_secs);
    json.member("overhead_pct", (on_secs / off_secs - 1.0) * 100.0);
    json.member("points_recorded", static_cast<std::uint64_t>(on_points));
    json.member("points_paused", static_cast<std::uint64_t>(off_points));
    json.member("results_identical", true);
    json.end_object();
  }

  manifest.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  json.key("manifest");
  manifest.write_json(json);
  json.end_object();
  std::cout << "\n";
  return 0;
}
