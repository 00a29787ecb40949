#include "nbclos/flow/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>

#include "nbclos/obs/trace.hpp"

namespace nbclos::flow {

namespace detail {

ChannelFacts::ChannelFacts(const Network& net, std::uint32_t vc_per_channel)
    : vcs(vc_per_channel),
      buf_base(net.channel_count(), 0),
      is_nic(net.channel_count(), 0),
      dst(net.channel_count(), 0),
      dst_is_terminal(net.channel_count(), 0) {
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    dst[c] = net.channel_dst(c);
    dst_is_terminal[c] = net.vertex(dst[c]).kind == VertexKind::kTerminal;
    if (net.vertex(net.channel_src(c)).kind == VertexKind::kTerminal) {
      is_nic[c] = 1;
      channel_of_nic.push_back(c);
    } else {
      buf_base[c] =
          static_cast<std::uint32_t>(channel_of_switch.size()) * vcs;
      channel_of_switch.push_back(c);
    }
  }
  switch_buffers = static_cast<std::uint32_t>(channel_of_switch.size()) * vcs;
  for (std::uint32_t i = 0; i < channel_of_nic.size(); ++i) {
    buf_base[channel_of_nic[i]] = switch_buffers + i;
  }
}

obs::HistogramMetric& stall_metric() {
  // Fixed geometry: the registry requires one geometry per name, so the
  // cap cannot follow run length.
  constexpr std::uint64_t kStallHistCap = 1u << 20;
  return obs::metrics().histogram("flow.stall_cycles", kStallHistCap);
}

void finalize_forensics(DeadlockForensics& forensics) {
  auto& blocked = forensics.blocked;
  std::sort(blocked.begin(), blocked.end(),
            [](const BlockedBufferReport& a, const BlockedBufferReport& b) {
              return a.buffer < b.buffer;
            });
  const auto find = [&](std::uint32_t buffer) -> std::ptrdiff_t {
    const auto it = std::lower_bound(
        blocked.begin(), blocked.end(), buffer,
        [](const BlockedBufferReport& r, std::uint32_t key) {
          return r.buffer < key;
        });
    if (it == blocked.end() || it->buffer != buffer) return -1;
    return it - blocked.begin();
  };
  // Walk the waiting_for edges (each node has out-degree <= 1, so the
  // reachable set from any start is a rho shape: tail + at most one
  // cycle).  Three-state marking keeps the whole pass O(n).
  std::vector<std::uint8_t> state(blocked.size(), 0);  // 0 new, 1 path, 2 done
  std::vector<std::ptrdiff_t> path;
  for (std::size_t s = 0; s < blocked.size() && forensics.wait_cycle.empty();
       ++s) {
    if (state[s] != 0) continue;
    path.clear();
    std::ptrdiff_t i = static_cast<std::ptrdiff_t>(s);
    while (i >= 0 && state[i] == 0) {
      state[i] = 1;
      path.push_back(i);
      const std::uint32_t next = blocked[i].waiting_for;
      i = next == BlockedBufferReport::kWaitsOnNone ? -1 : find(next);
    }
    if (i >= 0 && state[i] == 1) {
      const auto start = std::find(path.begin(), path.end(), i);
      for (auto it = start; it != path.end(); ++it) {
        blocked[*it].on_cycle = true;
        forensics.wait_cycle.push_back(blocked[*it].buffer);
      }
    }
    for (const auto p : path) state[p] = 2;
  }
  if (blocked.size() > DeadlockForensics::kMaxBlocked) {
    std::stable_partition(
        blocked.begin(), blocked.end(),
        [](const BlockedBufferReport& r) { return r.on_cycle; });
    blocked.resize(DeadlockForensics::kMaxBlocked);
    std::sort(blocked.begin(), blocked.end(),
              [](const BlockedBufferReport& a, const BlockedBufferReport& b) {
                return a.buffer < b.buffer;
              });
  }
}

}  // namespace detail

FlowSim::FlowSim(std::shared_ptr<const routing::NextHop> next_hop,
                 const sim::TrafficPattern& traffic, FlowConfig flow_config,
                 const fault::DegradedView* faults,
                 std::vector<fault::FaultEvent> fault_events)
    : FlitKernel(std::make_shared<const detail::ChannelFacts>(
                     next_hop->network(), flow_config.vcs),
                 *next_hop, flow_config),
      routes_(std::move(next_hop)),
      traffic_(&traffic),
      fault_events_(std::move(fault_events)),
      rng_(config.seed) {
  const Network& net = routes_->network();
  NBCLOS_REQUIRE(faults == nullptr || &faults->network() == &net,
                 "degraded view was built over a different network");
  NBCLOS_REQUIRE(fault_events_.empty() || faults != nullptr,
                 "fault events need a degraded view to apply to");
  std::stable_sort(fault_events_.begin(), fault_events_.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  packet_rate_ =
      config.injection_rate / static_cast<double>(config.packet_flits);
  const auto terminals = net.terminals();
  terminal_count_ = static_cast<std::uint32_t>(terminals.size());
  NBCLOS_REQUIRE(traffic.terminal_count() == terminal_count_,
                 "traffic pattern size does not match network");
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    NBCLOS_REQUIRE(terminals[t] == t,
                   "terminals must be vertices [0, T) (library builders "
                   "guarantee this)");
  }
  init_arena(facts->switch_buffers,
             static_cast<std::uint32_t>(facts->channel_of_nic.size()),
             net.channel_count(), net.channel_count(), terminal_count_, 0,
             terminal_count_, faults);
  wires.reserve(net.channel_count());
  if constexpr (obs::kEnabled) arm_recorder();
}

void FlowSim::arm_recorder() {
  if (!config.record_timeseries) return;
  obs::FlightRecorder::Config rec;
  rec.cadence = config.record_cadence;
  rec.ring_capacity = config.record_ring_capacity;
  rec.shards = 1;
  recorder_.configure(rec);
  // Same names, cadence, and capacity as ShardedFlowSim's recorder, so
  // the per-shard sums of these kInvariant series are bit-identical to
  // this serial recording at any shard count.
  using obs::SeriesAgg;
  rec_in_system_ = recorder_.series("flow.flits.in_system", SeriesAgg::kSum);
  rec_buffer_occupancy_ =
      recorder_.series("flow.buffer.occupancy", SeriesAgg::kSum);
  rec_credit_stalls_ =
      recorder_.series("flow.stall.credit_cycles", SeriesAgg::kSum);
  rec_vc_stalls_ = recorder_.series("flow.stall.vc_cycles", SeriesAgg::kSum);
  rec_blocked_heads_ = recorder_.series("flow.blocked.heads", SeriesAgg::kSum);
  rec_injected_ = recorder_.series("flow.packets.injected", SeriesAgg::kSum);
  rec_delivered_ = recorder_.series("flow.packets.delivered", SeriesAgg::kSum);
}

void FlowSim::sample_recorder() {
  recorder_.record(rec_in_system_, 0, now_, flits_in_system);
  recorder_.record(rec_buffer_occupancy_, 0, now_,
                   static_cast<std::int64_t>(pool->switch_flits_total()));
  recorder_.record(rec_credit_stalls_, 0, now_,
                   static_cast<std::int64_t>(credit_stall_cycles));
  recorder_.record(rec_vc_stalls_, 0, now_,
                   static_cast<std::int64_t>(vc_stall_cycles));
  recorder_.record(rec_blocked_heads_, 0, now_,
                   static_cast<std::int64_t>(blocked_heads));
  recorder_.record(rec_injected_, 0, now_,
                   static_cast<std::int64_t>(injected));
  recorder_.record(rec_delivered_, 0, now_,
                   static_cast<std::int64_t>(delivered_packets));
}

void FlowSim::step_injection() {
  if (config.counter_injection) {
    // The discipline ShardedFlowSim replays over its owned terminals.
    inject_counter(*traffic_, packet_rate_, now_);
    return;
  }
  // Mirrors PacketSim::step_injection draw for draw (one bernoulli, then
  // one destination draw, terminals ascending) — the shared RNG sequence
  // is what makes the cross-engine golden equivalence exact.
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    if (!rng_.bernoulli(packet_rate_)) continue;
    const auto dst = traffic_->destination(t, rng_);
    if (!dst.has_value()) continue;
    inject(t, *dst, now_);
  }
}

bool FlowSim::watchdog_tripped() {
  if (config.watchdog_epoch == 0) return false;
  if ((now_ + 1) % config.watchdog_epoch != 0) return false;
  // Piggyback the credit-conservation audit on the epoch boundary: O(B)
  // every epoch cycles is invisible, and a ledger bug surfaces here long
  // before it corrupts results.
  if (ledger != nullptr) NBCLOS_ASSERT(credit_conservation_holds());
  if (flits_in_system > 0 && flits_moved_epoch == 0) {
    deadlocked_ = true;
    return true;
  }
  flits_moved_epoch = 0;
  return false;
}

void FlowSim::step_phases(bool timed) {
  using clock = std::chrono::steady_clock;
  auto last = timed ? clock::now() : clock::time_point{};
  const auto lap = [&](std::size_t phase) {
    if (!timed) return;
    const auto t = clock::now();
    phase_ns_[phase] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - last)
            .count());
    last = t;
  };
  if (ledger != nullptr) ledger->advance(now_);
  lap(0);
  land(now_, measuring_);
  lap(1);
  // Only transmit drains a channel, so every member still holds flits.
  active.sweep([&](std::uint32_t c) {
    (void)transmit(c, now_);
    return channel_flits[c] != 0;
  });
  lap(2);
  step_injection();
  lap(3);
  if (timed) ++phase_samples_;
}

FlowResult FlowSim::run() {
  obs::ScopedSpan span("flow.run", "flow");
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
    step_phases(timed);
    if (onoff != nullptr) onoff->latch();
    if (measuring_ && !facts->channel_of_switch.empty()) {
      // Same arithmetic as PacketSim's sample: total flits across switch
      // buffers over the number of switch output channels.
      queue_depth_samples_.add(
          static_cast<double>(pool->switch_flits_total()) /
          static_cast<double>(facts->channel_of_switch.size()));
    }
    if (recorder_.want(now_)) sample_recorder();
    if (watchdog_tripped()) break;
  }

  FlowResult result;
  result.offered_load = config.injection_rate;
  result.injected_packets = injected;
  result.delivered_packets = delivered_packets;
  result.dropped_packets = dropped;
  result.accepted_throughput =
      static_cast<double>(delivered_measured_flits) /
      (static_cast<double>(config.measure_cycles) *
       static_cast<double>(terminal_count_));
  // Counter mode reports the exact integer mean (order-independent, so
  // it merges across shards); the legacy mode keeps its Welford stream.
  result.mean_latency =
      config.counter_injection
          ? (latency_count > 0 ? static_cast<double>(latency_sum) /
                                     static_cast<double>(latency_count)
                               : 0.0)
          : latency_stats.mean();
  result.latency_bucket_width =
      static_cast<double>(latency_hist.bucket_width());
  if (latency_hist.count() > 0) {
    result.p50_latency = latency_hist.quantile(0.50);
    result.p99_latency = latency_hist.quantile(0.99);
    result.p999_latency = latency_hist.quantile(0.999);
  }
  result.mean_switch_queue_depth = queue_depth_samples_.mean();
  set_flow_extremes(
      result, terminal_count_, config.measure_cycles,
      [&](std::uint32_t t) { return flow_sequence[t] != 0; },
      [&](std::uint32_t t) { return delivered_per_source[t]; });
  result.credit_stall_cycles = credit_stall_cycles;
  result.vc_stall_cycles = vc_stall_cycles;
  result.mean_stall_cycles =
      config.counter_injection
          ? (stall_episode_count > 0
                 ? static_cast<double>(stall_duration_sum) /
                       static_cast<double>(stall_episode_count)
                 : 0.0)
          : stall_stats.mean();
  result.p99_stall_cycles =
      stall_hist.count() > 0 ? stall_hist.quantile(0.99) : 0.0;
  result.peak_buffer_flits = pool->peak_switch_flits();
  result.peak_live_packets = peak_live_packets_;
  result.deadlocked = deadlocked_;
  if (deadlocked_) {
    result.deadlock_cycle = now_;
    result.stuck_flits = static_cast<std::uint64_t>(flits_in_system);
    result.stuck_buffers = occupied_buffers(8);
    // Freeze the blocked-FIFO picture and the recorder tail (the loop
    // has stopped; all state is final).
    forensics_.valid = true;
    forensics_.trip_cycle = now_;
    forensics_.stuck_flits = result.stuck_flits;
    collect_blocked(forensics_.blocked);
    forensics_.tail = recorder_.tail(DeadlockForensics::kTailPoints);
    detail::finalize_forensics(forensics_);
  }
  // End-of-run conservation audit: the wires and delay line still hold
  // whatever was in flight when the loop ended, so the identity must
  // close exactly here too.
  if (ledger != nullptr) NBCLOS_ASSERT(credit_conservation_holds());
  if constexpr (obs::kEnabled) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    flush_obs(wall.count());
    span.arg("cycles", static_cast<double>(now_));
    span.arg("delivered", static_cast<double>(delivered_packets));
    span.arg("rate", config.injection_rate);
  }
  return result;
}

void FlowSim::flush_obs(double wall_seconds) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("flow.runs").add(1);
  m.counter("flow.cycles").add(now_);
  m.counter("flow.packets.injected").add(injected);
  m.counter("flow.packets.delivered").add(delivered_packets);
  m.counter("flow.packets.dropped").add(dropped);
  m.counter("flow.route.lookups").add(route_lookups);
  m.counter("flow.stall.credit_cycles").add(credit_stall_cycles);
  m.counter("flow.stall.vc_cycles").add(vc_stall_cycles);
  if (deadlocked_) m.counter("flow.deadlocks").add(1);
  std::uint64_t busy_total = 0;
  for (const auto b : link_busy) busy_total += b;
  m.counter("flow.flits.transmitted").add(busy_total);
  m.gauge("flow.buffer.peak_flits")
      .set(static_cast<std::int64_t>(pool->peak_switch_flits()));
  m.gauge("flow.buffer.pool_bytes")
      .set(static_cast<std::int64_t>(pool->bytes()));
  for (std::uint32_t v = 0; v < config.vcs; ++v) {
    m.gauge("flow.vc.peak_flits." + std::to_string(v))
        .set(static_cast<std::int64_t>(peak_per_vc[v]));
  }
  // Sampled per-phase cycle cost, nanoseconds per sampled cycle — the
  // serial counterparts of ShardedFlowSim's flow.phase.* histograms.
  static constexpr std::array<const char*, 4> kPhases = {
      "flow.phase.credit_returns_ns", "flow.phase.arrivals_ns",
      "flow.phase.transmissions_ns", "flow.phase.injection_ns"};
  const std::uint64_t cap = 1'000'000;  // 1 ms/cycle ceiling per phase
  for (std::size_t i = 0; i < kPhases.size() && phase_samples_ > 0; ++i) {
    m.histogram(kPhases[i], cap).record(phase_ns_[i] / phase_samples_);
  }
  m.counter("flow.wall_us")
      .add(static_cast<std::uint64_t>(wall_seconds * 1e6));
}

ArenaStats FlowSim::arena_stats() const {
  ArenaStats stats;
  stats.flit_arena_bytes = pool->bytes();
  stats.packet_arena_bytes = packets.bytes();
  stats.resident_slots = pool->resident_slots();
  stats.peak_slots = pool->peak_slots();
  return stats;
}

std::vector<FlowResult> flow_load_sweep(
    const std::shared_ptr<const routing::NextHop>& routes,
    const sim::TrafficPattern& traffic, const FlowConfig& base,
    const std::vector<double>& rates, ThreadPool* pool) {
  std::vector<FlowResult> results(rates.size());
  obs::ScopedSpan sweep_span("flow.load_sweep", "sweep");
  sweep_span.arg("rates", static_cast<double>(rates.size()));
  const auto run_at = [&](std::size_t i) {
    FlowConfig config = base;
    config.injection_rate = rates[i];
    FlowSim sim(routes, traffic, config);
    results[i] = sim.run();
  };
  if (pool != nullptr && rates.size() > 1) {
    pool->parallel_for(0, rates.size(), run_at);
  } else {
    for (std::size_t i = 0; i < rates.size(); ++i) run_at(i);
  }
  return results;
}

}  // namespace nbclos::flow
