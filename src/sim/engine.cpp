#include "nbclos/sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/sim/kernel.hpp"

namespace nbclos::sim {

namespace detail {

std::vector<fault::FaultEvent> checked_fault_schedule(
    const Network& net, const TrafficPattern& traffic, const SimConfig& config,
    const fault::DegradedView* degraded,
    std::vector<fault::FaultEvent> fault_events) {
  NBCLOS_REQUIRE(net.finalized(), "network must be finalized");
  NBCLOS_REQUIRE(degraded == nullptr || &degraded->network() == &net,
                 "degraded view was built over a different network");
  NBCLOS_REQUIRE(fault_events.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  config.validate();
  const auto terminals = net.terminals();
  NBCLOS_REQUIRE(traffic.terminal_count() == terminals.size(),
                 "traffic pattern size does not match network");
  for (std::uint32_t t = 0; t < terminals.size(); ++t) {
    NBCLOS_REQUIRE(terminals[t] == t,
                   "terminals must be vertices [0, T) (library builders "
                   "guarantee this)");
  }
  std::stable_sort(fault_events.begin(), fault_events.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  return fault_events;
}

PacketSeries PacketSeries::arm(obs::FlightRecorder& recorder,
                               const SimConfig& config, std::uint32_t shards) {
  obs::FlightRecorder::Config rec;
  rec.cadence = config.record_cadence;
  rec.ring_capacity = config.record_ring_capacity;
  rec.shards = shards;
  recorder.configure(rec);
  const char* const names[] = {"sim.queue.depth_sum",  "sim.active.flying",
                               "sim.active.sendable",  "sim.link.busy_flits",
                               "sim.packets.injected", "sim.packets.delivered"};
  PacketSeries series;
  for (std::size_t i = 0; i < series.ids.size(); ++i) {
    series.ids[i] = recorder.series(names[i], obs::SeriesAgg::kSum);
  }
  return series;
}

}  // namespace detail

// --- sweep drivers ----------------------------------------------------

namespace {

/// Per-run oracle seed for (sweep seed, phase tag, run index) —
/// decorrelated via SplitMix64 so neighboring runs share no stream
/// structure (same discipline as analysis::parallel / fault::sweep).
std::uint64_t sweep_run_seed(std::uint64_t seed, std::uint64_t tag,
                             std::uint64_t index) {
  SplitMix64 sm(seed ^ (tag << 32) ^ index);
  return sm.next();
}

/// One sweep run with a worker-private oracle (and, when faulted, a
/// run-private copy of the initial degraded view).
SimResult run_single(const Network& net, const OracleFactory& factory,
                     const TrafficPattern& traffic, SimConfig config,
                     std::uint64_t run_seed,
                     const fault::DegradedView* degraded,
                     const std::vector<fault::FaultEvent>& fault_events) {
  obs::ScopedSpan span("sweep.probe", "sweep");
  span.arg("rate", config.injection_rate);
  const auto run = [&] {
    std::optional<fault::DegradedView> view;
    if (degraded != nullptr) view.emplace(*degraded);
    fault::DegradedView* mask = view ? &*view : nullptr;
    const auto oracle = factory(run_seed, mask);
    PacketSim sim(net, *oracle, traffic, config, mask, fault_events);
    return sim.run();
  };
  if constexpr (obs::kEnabled) {
    if (obs::enabled()) {
      const auto t0 = std::chrono::steady_clock::now();
      SimResult result = run();
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0);
      // Per-probe wall time; 10 s ceiling covers every config we sweep.
      obs::metrics()
          .histogram("sweep.probe_us", 10'000'000)
          .record(static_cast<std::uint64_t>(us.count()));
      span.arg("throughput", result.accepted_throughput);
      return result;
    }
  }
  return run();
}

}  // namespace

std::vector<SimResult> load_sweep(
    const Network& net, const OracleFactory& factory,
    const TrafficPattern& traffic, const SimConfig& base,
    const std::vector<double>& rates, ThreadPool* pool,
    const fault::DegradedView* degraded,
    const std::vector<fault::FaultEvent>& fault_events) {
  NBCLOS_REQUIRE(fault_events.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  std::vector<SimResult> results(rates.size());
  obs::ScopedSpan sweep_span("sim.load_sweep", "sweep");
  sweep_span.arg("rates", static_cast<double>(rates.size()));
  const auto run_at = [&](std::size_t i) {
    SimConfig config = base;
    config.injection_rate = rates[i];
    results[i] = run_single(net, factory, traffic, config,
                            sweep_run_seed(base.seed, 0x10adu, i), degraded,
                            fault_events);
  };
  if (pool != nullptr && rates.size() > 1) {
    pool->parallel_for(0, rates.size(), run_at);
  } else {
    for (std::size_t i = 0; i < rates.size(); ++i) run_at(i);
  }
  return results;
}

double find_saturation_load(const Network& net, const OracleFactory& factory,
                            const TrafficPattern& traffic,
                            const SimConfig& base, std::uint32_t iterations,
                            ThreadPool* pool,
                            const fault::DegradedView* degraded,
                            const std::vector<fault::FaultEvent>& fault_events) {
  NBCLOS_REQUIRE(fault_events.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  obs::ScopedSpan sat_span("sim.find_saturation", "sweep");
  // Bracketing phase: probe a coarse, fixed load grid concurrently.  The
  // grid includes 1.0, so a fabric that sustains full load is recognized
  // without any bisection (matching the serial fast path).
  constexpr std::uint32_t kGridProbes = 8;
  std::vector<std::uint8_t> saturated(kGridProbes, 0);
  const auto grid_load = [](std::uint32_t i) {
    return static_cast<double>(i + 1) / kGridProbes;
  };
  const auto probe_at = [&](std::size_t i) {
    SimConfig config = base;
    config.injection_rate = grid_load(static_cast<std::uint32_t>(i));
    saturated[i] = run_single(net, factory, traffic, config,
                              sweep_run_seed(base.seed, 0xb4acu, i), degraded,
                              fault_events)
                       .saturated();
  };
  if (pool != nullptr) {
    pool->parallel_for(0, kGridProbes, probe_at);
  } else {
    for (std::size_t i = 0; i < kGridProbes; ++i) probe_at(i);
  }
  std::uint32_t first_saturated = kGridProbes;
  for (std::uint32_t i = 0; i < kGridProbes; ++i) {
    if (saturated[i] != 0) {
      first_saturated = i;
      break;
    }
  }
  if (first_saturated == kGridProbes) return 1.0;
  // Bisect the bracketing interval serially (each step depends on the
  // last); per-step seeds keep the result thread-count independent.
  double lo = first_saturated == 0 ? 0.0 : grid_load(first_saturated - 1);
  double hi = grid_load(first_saturated);
  for (std::uint32_t i = 0; i < iterations; ++i) {
    const double mid = (lo + hi) / 2.0;
    SimConfig config = base;
    config.injection_rate = mid;
    const bool mid_saturated =
        run_single(net, factory, traffic, config,
                   sweep_run_seed(base.seed, 0xb15ec7u, i), degraded,
                   fault_events)
            .saturated();
    if (mid_saturated) {
      hi = mid;
    } else {
      lo = mid;
    }
    obs::trace_instant("sweep.bisect", "sweep", "lo", lo, "hi", hi, "mid",
                       mid);
    obs::metrics().counter("sweep.bisect_steps").add(1);
  }
  return lo;
}

}  // namespace nbclos::sim
