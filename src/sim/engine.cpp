#include "nbclos/sim/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>

#include "nbclos/obs/metrics.hpp"

namespace nbclos::sim {

namespace {

/// Per-run oracle seed for (sweep seed, phase tag, run index) —
/// decorrelated via SplitMix64 so neighboring runs share no stream
/// structure (same discipline as analysis::parallel / fault::sweep).
std::uint64_t sweep_run_seed(std::uint64_t seed, std::uint64_t tag,
                             std::uint64_t index) {
  SplitMix64 sm(seed ^ (tag << 32) ^ index);
  return sm.next();
}

}  // namespace

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

PacketSim::PacketSim(const Network& net, RoutingOracle& oracle,
                     const TrafficPattern& traffic, SimConfig config,
                     fault::DegradedView* degraded,
                     std::vector<fault::FaultEvent> fault_events)
    : PacketKernel(net, traffic, config), oracle_(&oracle),
      fault_events_(detail::checked_fault_schedule(
          net, traffic, config, degraded, std::move(fault_events))),
      arrival_candidates_(net.channel_count()), rng_(config.seed),
      view_(net, queue_depth), link_busy_flits_(net.channel_count(), 0) {
  PacketKernel::degraded = degraded;
  const auto terminals = static_cast<std::uint32_t>(traffic.terminal_count());
  carve(net.channel_count(), 0, terminals);
  if constexpr (obs::kEnabled) {
    if (config.record_timeseries) {
      series_ = detail::PacketSeries::arm(recorder_, config, 1);
    }
  }
}

void PacketSim::step_arrivals() {
  // Phase 1 collects, per target queue, the channels whose head packet
  // wants it (in ascending id: the sweep is ascending); phase 2 admits
  // them round-robin.
  arrival_targets_.clear();
  arrive(now_, measuring_,
         [&](std::uint32_t next, std::uint32_t c, const Packet&) {
           auto& waiting = arrival_candidates_[next];
           if (waiting.empty()) arrival_targets_.push_back(next);
           waiting.push_back(c);
         });
  for (const auto target : arrival_targets_) {
    auto& waiting = arrival_candidates_[target];
    admit(
        target, waiting.size(), [&](std::size_t k) { return waiting[k]; },
        [&](std::size_t k) -> const Packet& {
          flight[waiting[k]].valid = false;
          return flight[waiting[k]].packet;
        },
        [&](std::size_t k) { flying.insert(waiting[k]); });
    waiting.clear();
  }
}

void PacketSim::step_injection() {
  if (config.counter_injection) {
    // The engine's sequential rng_ is never touched: each terminal's draws
    // come from a generator keyed purely by (seed, cycle, terminal) — the
    // identical stream ShardedSim's workers produce, whichever shard owns
    // `t`.
    inject_counter(now_);
    return;
  }
  const auto terminals = static_cast<std::uint32_t>(traffic->terminal_count());
  for (std::uint32_t t = 0; t < terminals; ++t) {
    if (!rng_.bernoulli(packet_rate)) continue;
    const auto dst = traffic->destination(t, rng_);
    if (dst.has_value()) inject(t, *dst, now_);
  }
}

SimResult PacketSim::run() {
  obs::ScopedSpan span("sim.run", "sim");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t total = config.warmup_cycles + config.measure_cycles;
  for (now_ = 0; now_ < total; ++now_) {
    measuring_ = now_ >= config.warmup_cycles;
    apply_due_faults(fault_events_, now_);
    // Sampled per-phase timing: every 64th cycle when obs is on.  The
    // clock reads never touch simulation state, so the timed and untimed
    // paths produce bit-identical results.
    bool timed = false;
    if constexpr (obs::kEnabled) {
      timed = (now_ & 63u) == 0 && obs::enabled();
    }
    using clock = std::chrono::steady_clock;
    std::array<clock::time_point, 4> t{};
    const auto stamp = [&](std::size_t i) {
      if (timed) t[i] = clock::now();
    };
    stamp(0);
    step_arrivals();
    stamp(1);
    transmit(now_);
    stamp(2);
    step_injection();
    stamp(3);
    if (timed) {
      for (std::size_t i = 0; i < 3; ++i) {
        phase_ns_[i] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t[i + 1] -
                                                                 t[i])
                .count());
      }
      ++phase_samples_;
    }
    if constexpr (obs::kEnabled) {
      active_flying_sum_ += flying.size();
      active_sendable_sum_ += sendable.size();
      if (recorder_.want(now_)) sample(recorder_, series_, 0, now_);
    }
    if (measuring_ && switch_channel_count > 0) {
      // Sample switch queue depths (NIC queues excluded); the sum is
      // maintained incrementally by the kernel's push/pop/clear.
      queue_depth_samples_.add(static_cast<double>(switch_depth_sum) /
                               static_cast<double>(switch_channel_count));
    }
  }

  SimResult result;
  result.offered_load = config.injection_rate;
  result.injected_packets = injected;
  result.delivered_packets = delivered_packets;
  result.dropped_packets = dropped;
  const auto terminals = static_cast<std::uint32_t>(traffic->terminal_count());
  result.accepted_throughput =
      static_cast<double>(delivered_measured_flits) /
      (static_cast<double>(config.measure_cycles) *
       static_cast<double>(terminals));
  // Under counter injection the mean comes from the exact integer sums —
  // the order-independent arithmetic ShardedSim merges with, so the two
  // engines agree bit-for-bit.  The legacy Welford mean is part of the
  // recorded golden results and stays the default.
  result.mean_latency =
      config.counter_injection
          ? (latency_count > 0 ? static_cast<double>(latency_sum) /
                                     static_cast<double>(latency_count)
                               : 0.0)
          : latency_.mean();
  result.latency_bucket_width =
      static_cast<double>(latency_hist.bucket_width());
  if (latency_hist.count() > 0) {
    result.p50_latency = latency_hist.quantile(0.50);
    result.p99_latency = latency_hist.quantile(0.99);
    result.p999_latency = latency_hist.quantile(0.999);
  }
  result.mean_switch_queue_depth = queue_depth_samples_.mean();
  set_flow_extremes(
      result, terminals, config.measure_cycles,
      [&](std::uint32_t t) { return flow_sequence[t] != 0; },
      [&](std::uint32_t t) { return delivered_per_source[t]; });
  if constexpr (obs::kEnabled) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    flush_obs(wall.count());
    span.arg("cycles", static_cast<double>(total));
    span.arg("delivered", static_cast<double>(delivered_packets));
    span.arg("rate", config.injection_rate);
  }
  return result;
}

LinkUtilization PacketSim::link_utilization() const {
  LinkUtilization report;
  const std::uint64_t cycles = config.warmup_cycles + config.measure_cycles;
  report.busy_fraction.resize(link_busy_flits_.size(), 0.0);
  if (cycles == 0) return report;
  double sum = 0.0;
  for (std::size_t c = 0; c < link_busy_flits_.size(); ++c) {
    // A packet transmitting across the run boundary counts its full
    // length, so clamp: a link is never more than 100% busy.
    const double frac =
        std::min(1.0, static_cast<double>(link_busy_flits_[c]) /
                          static_cast<double>(cycles));
    report.busy_fraction[c] = frac;
    sum += frac;
    if (frac > report.max) {
      report.max = frac;
      report.max_channel = static_cast<std::uint32_t>(c);
    }
  }
  if (!report.busy_fraction.empty()) {
    report.mean = sum / static_cast<double>(report.busy_fraction.size());
  }
  return report;
}

void PacketSim::flush_obs(double wall_seconds) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  const std::uint64_t total = config.warmup_cycles + config.measure_cycles;
  m.counter("sim.runs").add(1);
  m.counter("sim.cycles").add(total);
  flush_counts();
  m.counter("sim.oracle.calls").add(oracle_calls_);
  // Active-channel counts: channel-cycles divided by sim.cycles gives the
  // mean number of simultaneously active channels.
  m.counter("sim.active.flying_channel_cycles").add(active_flying_sum_);
  m.counter("sim.active.sendable_channel_cycles").add(active_sendable_sum_);
  // Queue depth at end of run plus the high-water over runs (gauge max).
  m.gauge("sim.queue.switch_depth_sum")
      .set(static_cast<std::int64_t>(switch_depth_sum));
  const auto util = link_utilization();
  m.gauge("sim.link.max_util_ppm")
      .set(static_cast<std::int64_t>(util.max * 1e6));
  // Sampled per-phase cycle cost, nanoseconds per sampled cycle.
  if (phase_samples_ > 0) {
    const std::uint64_t cap = 1'000'000;  // 1 ms/cycle ceiling per phase
    m.histogram("sim.phase.arrivals_ns", cap)
        .record(phase_ns_[0] / phase_samples_);
    m.histogram("sim.phase.transmissions_ns", cap)
        .record(phase_ns_[1] / phase_samples_);
    m.histogram("sim.phase.injection_ns", cap)
        .record(phase_ns_[2] / phase_samples_);
  }
  m.counter("sim.wall_us")
      .add(static_cast<std::uint64_t>(wall_seconds * 1e6));
}

// --- sweep drivers ----------------------------------------------------

namespace {

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
