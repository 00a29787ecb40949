#include "nbclos/sim/sharded.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <thread>

#include "nbclos/obs/metrics.hpp"

namespace nbclos::sim {

/// All mutable per-shard simulation state — one kernel arena per worker,
/// allocated on the worker's own thread (first touch) and never touched
/// by another until the merge after join.
struct ShardedSim::Shard : detail::PacketKernel<Shard> {
  Shard(const ShardedSim& engine, std::uint32_t shard)
      : PacketKernel(engine.router_->network(), *engine.traffic_,
                     engine.config_),
        index(shard), router(engine.router_),
        channel_local(engine.plan_.channel_local.data()),
        channel_owner(engine.plan_.channel_owner.data()),
        owned(engine.plan_.shard_channels[shard].data()) {}

  // The kernel's hooks: owned channels by local id (local ids ascend with
  // global id, so the active sets' ascending sweeps visit PacketSim's
  // order), routes from the pure NextHop, no per-link tally and no
  // Welford stream (the merge uses the exact integer sums).
  std::uint32_t channel(std::uint32_t c) const {
    NBCLOS_DEBUG_CHECK(channel_owner[c] == index, "channel of another shard");
    return channel_local[c];
  }
  std::uint32_t global(std::uint32_t li) const { return owned[li]; }
  std::uint32_t route(std::uint32_t at, const Packet& packet) const {
    return router->next_channel_from(at, packet.src_terminal,
                                     packet.dst_terminal);
  }
  static void busy(std::uint32_t /*c*/, std::uint32_t /*flits*/) {}
  static void measured_latency(std::uint64_t /*latency*/) {}

  std::uint32_t index = 0;
  const routing::NextHop* router;
  // The engine's read-only id tables.
  const std::uint32_t* channel_local;
  const std::uint8_t* channel_owner;
  const std::uint32_t* owned;  ///< local id -> global channel id

  std::optional<fault::DegradedView> view;  ///< the kernel's private mask
  std::uint32_t numa_node = 0;  ///< node the worker ran (and touched) on

  // Phase scratch.
  std::vector<Proposal> local_props;  ///< proposals targeting this shard
  std::vector<Proposal> merged;       ///< all of them, ascending `from`
  std::vector<Proposal> merge_scratch;
  /// Per owned channel (local id): indices into `merged` of the
  /// candidates for it, ascending `from`; `targets` lists the channels
  /// with candidates in first-appearance order.
  std::vector<std::vector<std::uint32_t>> candidates;
  std::vector<std::uint32_t> targets;

  std::vector<std::uint64_t> depth_sum_by_cycle;  ///< per cycle, replayed
  std::uint64_t cross_flits = 0;
  std::uint64_t mailbox_peak = 0;
  /// Sampled phase costs (propose, admit, resolve, mailbox drains) and
  /// barrier wait, summed over the timed cycles.
  std::array<std::uint64_t, 4> phase_ns{};
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t timed_cycles = 0;
};

ShardedSim::ShardedSim(const routing::NextHop& router,
                       const TrafficPattern& traffic, SimConfig config,
                       std::uint32_t shards,
                       const fault::DegradedView* degraded,
                       std::vector<fault::FaultEvent> fault_events)
    : router_(&router), traffic_(&traffic), config_(config),
      fault_events_(detail::checked_fault_schedule(
          router.network(), traffic, config, degraded,
          std::move(fault_events))),
      degraded_(degraded) {
  config_.counter_injection = true;  // the sharded engine's only mode

  plan_ = ShardPlan::build(router.network(), shards);
  const std::uint32_t shard_count = plan_.shard_count;
  // Shard objects carry only metadata here; the heavy arena vectors are
  // allocated (and thus first-touched) inside each worker thread in
  // run_shard, so every arena's pages land on the NUMA node its worker
  // runs on.
  shards_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(*this, s));
  }

  proposal_box_ = MailboxGrid<Proposal>(shard_count);
  ack_box_ = MailboxGrid<Ack>(shard_count);
  sync_ = std::make_unique<ShardSync>(shard_count);
  numa_ = NumaTopology::detect();
  if constexpr (obs::kEnabled) {
    if (config_.record_timeseries) {
      // Same names, cadence, and capacity as the serial PacketSim
      // recorder, so after the per-shard sum these kInvariant series are
      // bit-identical to a serial recording at any shard count.
      series_ = detail::PacketSeries::arm(recorder_, config_, shard_count);
      // Cross-shard fabric health: only meaningful relative to the shard
      // cut, so excluded from the shard-count-invariance contract.
      rec_mailbox_flits_ =
          recorder_.series("sim.mailbox.cross_flits", obs::SeriesAgg::kSum,
                           obs::SeriesScope::kShardTopology);
      rec_mailbox_peak_ =
          recorder_.series("sim.mailbox.peak", obs::SeriesAgg::kMax,
                           obs::SeriesScope::kShardTopology);
    }
  }
}

ShardedSim::~ShardedSim() = default;

void ShardedSim::phase_propose(Shard& sh, std::uint64_t now, bool measuring) {
  sh.apply_due_faults(fault_events_, now);
  sh.arrive(now, measuring,
            [&](std::uint32_t next, std::uint32_t li, const Packet& packet) {
              // Propose admission to the owner of the chosen channel; the
              // ack in phase C either clears the flight (winner) or
              // re-inserts the channel (loser — backpressure).
              const Proposal proposal{next, sh.global(li), packet};
              const auto owner = plan_.channel_owner[next];
              if (owner == sh.index) {
                sh.local_props.push_back(proposal);
              } else {
                proposal_box_.box(sh.index, owner).push_back(proposal);
                sh.cross_flits += packet.size_flits;
              }
            });
}

void ShardedSim::merge_proposals(Shard& sh) {
  // Every run ascends by proposing channel — this shard's own arrival
  // sweep and each owner's box — so merging them keeps `merged` in the
  // order PacketSim's global ascending sweep produces.
  const auto by_from = [](const Proposal& a, const Proposal& b) {
    return a.from < b.from;
  };
  sh.merged.swap(sh.local_props);
  sh.local_props.clear();
  proposal_box_.drain_to(sh.index, [&](std::uint32_t,
                                       const std::vector<Proposal>& box) {
    sh.mailbox_peak = std::max<std::uint64_t>(sh.mailbox_peak, box.size());
    merge_run(sh.merged, box, sh.merge_scratch, by_from);
  });
}

void ShardedSim::send_ack(Shard& sh, std::uint32_t from, bool accepted) {
  const auto owner = plan_.channel_owner[from];
  if (owner == sh.index) {
    apply_ack(sh, Ack{from, accepted});
  } else {
    ack_box_.box(sh.index, owner).push_back(Ack{from, accepted});
  }
}

void ShardedSim::apply_ack(Shard& sh, const Ack& ack) {
  const auto li = sh.channel(ack.from);
  if (ack.accepted) {
    sh.flight[li].valid = false;
  } else {
    sh.flying.insert(li);
  }
}

void ShardedSim::phase_admit(Shard& sh) {
  // Bucket the candidates per target, as PacketSim::step_arrivals does:
  // each bucket keeps `merged`'s ascending proposing-channel order.
  const auto& merged = sh.merged;
  for (std::uint32_t k = 0; k < merged.size(); ++k) {
    auto& waiting = sh.candidates[sh.channel(merged[k].target)];
    if (waiting.empty()) sh.targets.push_back(merged[k].target);
    waiting.push_back(k);
  }
  for (const auto target : sh.targets) {
    auto& waiting = sh.candidates[sh.channel(target)];
    sh.admit(
        target, waiting.size(),
        [&](std::size_t k) { return merged[waiting[k]].from; },
        [&](std::size_t k) -> const Packet& {
          send_ack(sh, merged[waiting[k]].from, true);
          return merged[waiting[k]].packet;
        },
        [&](std::size_t k) { send_ack(sh, merged[waiting[k]].from, false); });
    waiting.clear();
  }
  sh.targets.clear();
}

void ShardedSim::drain_acks(Shard& sh) {
  ack_box_.drain_to(sh.index, [&](std::uint32_t, const std::vector<Ack>& box) {
    for (const Ack& ack : box) apply_ack(sh, ack);
  });
}

void ShardedSim::phase_resolve(Shard& sh, std::uint64_t now) {
  // The acks are in (drain_acks): an accepted candidate freed its
  // channel, which may load a new packet in this cycle's transmissions,
  // as in PacketSim, where arrivals complete before transmissions.
  sh.transmit(now);
  sh.inject_counter(now);
  sh.depth_sum_by_cycle[now] = sh.switch_depth_sum;
}

void ShardedSim::run_shard(std::uint32_t s) {
  try {
    Shard& sh = *shards_[s];
    const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
    // First-touch: the arena vectors are allocated here, on the worker's
    // own thread, so their pages land on the node the worker runs on.
    const auto owned =
        static_cast<std::uint32_t>(plan_.shard_channels[s].size());
    sh.carve(owned, plan_.terminal_begin[s], plan_.terminal_begin[s + 1]);
    sh.candidates.resize(owned);
    sh.depth_sum_by_cycle.assign(total, 0);
    if (degraded_ != nullptr) sh.degraded = &sh.view.emplace(*degraded_);
    sh.numa_node = current_numa_node(numa_);
    for (std::uint64_t now = 0; now < total; ++now) {
      if (sync_->poisoned()) {
        sync_->arrive_and_drop();
        return;
      }
      const bool measuring = now >= config_.warmup_cycles;
      // Sampled phase timing: every 64th cycle when obs is on, skipping
      // cycle 0, whose first barrier also waits out the other workers'
      // start-up and arena set-up.  The clock reads never touch
      // simulation state, so the timed and untimed paths produce
      // bit-identical results.
      bool timed = false;
      if constexpr (obs::kEnabled) {
        timed = (now & 63u) == 63u && obs::enabled();
      }
      using clock = std::chrono::steady_clock;
      std::array<clock::time_point, 8> t{};
      const auto stamp = [&](std::size_t i) {
        if (timed) t[i] = clock::now();
      };
      stamp(0);
      phase_propose(sh, now, measuring);
      stamp(1);
      sync_->arrive_and_wait();
      stamp(2);
      merge_proposals(sh);
      stamp(3);
      phase_admit(sh);
      stamp(4);
      sync_->arrive_and_wait();
      stamp(5);
      drain_acks(sh);
      stamp(6);
      phase_resolve(sh, now);
      stamp(7);
      if (timed) {
        const auto ns = [](clock::duration d) {
          return static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                  .count());
        };
        sh.phase_ns[0] += ns(t[1] - t[0]);
        sh.phase_ns[1] += ns(t[4] - t[3]);
        sh.phase_ns[2] += ns(t[7] - t[6]);
        sh.phase_ns[3] += ns((t[3] - t[2]) + (t[6] - t[5]));
        sh.barrier_wait_ns += ns((t[2] - t[1]) + (t[5] - t[4]));
        ++sh.timed_cycles;
      }
      if constexpr (obs::kEnabled) {
        if (recorder_.want(now)) {
          sh.sample(recorder_, series_, sh.index, now);
          recorder_.record(rec_mailbox_flits_, sh.index, now,
                           static_cast<std::int64_t>(sh.cross_flits));
          recorder_.record(rec_mailbox_peak_, sh.index, now,
                           static_cast<std::int64_t>(sh.mailbox_peak));
        }
      }
    }
  } catch (...) {
    sync_->record_failure();
  }
}

SimResult ShardedSim::run() {
  NBCLOS_REQUIRE(!ran_, "ShardedSim::run may only be called once");
  ran_ = true;
  obs::ScopedSpan span("sim.sharded.run", "sim");
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(plan_.shard_count);
  for (std::uint32_t s = 1; s < plan_.shard_count; ++s) {
    workers.emplace_back([this, s] { run_shard(s); });
  }
  run_shard(0);
  for (auto& worker : workers) worker.join();
  sync_->rethrow_if_failed();

  SimResult result = merge_results();
  if constexpr (obs::kEnabled) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    flush_obs(wall.count());
    span.arg("cycles", static_cast<double>(config_.warmup_cycles +
                                           config_.measure_cycles));
    span.arg("shards", static_cast<double>(plan_.shard_count));
    span.arg("rate", config_.injection_rate);
  }
  return result;
}

SimResult ShardedSim::merge_results() {
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  const auto terminals = static_cast<std::uint32_t>(traffic_->terminal_count());
  SimResult result;
  result.offered_load = config_.injection_rate;

  std::uint64_t delivered_measured_flits = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t switch_channels = 0;
  QuantileHistogram hist(total);
  telemetry_ = Telemetry{};
  for (const auto& shard : shards_) {
    const Shard& sh = *shard;
    result.injected_packets += sh.injected;
    result.delivered_packets += sh.delivered_packets;
    result.dropped_packets += sh.dropped;
    delivered_measured_flits += sh.delivered_measured_flits;
    latency_sum += sh.latency_sum;
    latency_count += sh.latency_count;
    switch_channels += sh.switch_channel_count;
    hist.merge(sh.latency_hist);
    telemetry_.cross_shard_flits += sh.cross_flits;
    telemetry_.mailbox_peak =
        std::max(telemetry_.mailbox_peak, sh.mailbox_peak);
    telemetry_.remaining_packets += sh.remaining();
  }

  result.accepted_throughput =
      static_cast<double>(delivered_measured_flits) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(terminals));
  // Exact integer mean — the same arithmetic PacketSim uses in
  // counter-injection mode, and independent of delivery order.
  result.mean_latency =
      latency_count > 0
          ? static_cast<double>(latency_sum) / static_cast<double>(latency_count)
          : 0.0;
  result.latency_bucket_width = static_cast<double>(hist.bucket_width());
  if (hist.count() > 0) {
    result.p50_latency = hist.quantile(0.50);
    result.p99_latency = hist.quantile(0.99);
    result.p999_latency = hist.quantile(0.999);
  }

  // Mean switch-queue depth: replay the per-cycle global depth sums in
  // cycle order through the same Welford accumulator PacketSim streams,
  // so the result is bit-identical at any shard count.
  RunningStats depth_samples;
  if (switch_channels > 0) {
    for (std::uint64_t cycle = config_.warmup_cycles; cycle < total; ++cycle) {
      std::uint64_t sum = 0;
      for (const auto& shard : shards_) {
        sum += shard->depth_sum_by_cycle[cycle];
      }
      depth_samples.add(static_cast<double>(sum) /
                        static_cast<double>(switch_channels));
    }
  }
  result.mean_switch_queue_depth = depth_samples.mean();

  // Fairness: flow_sequence lives with the injecting shard; deliveries
  // are summed across all shards.
  set_flow_extremes(
      result, terminals, config_.measure_cycles,
      [&](std::uint32_t t) {
        const Shard& owner = *shards_[plan_.shard_of_vertex(t)];
        return owner.flow_sequence[t - owner.term_lo] != 0;
      },
      [&](std::uint32_t t) {
        std::uint64_t flits = 0;
        for (const auto& shard : shards_) {
          flits += shard->delivered_per_source[t];
        }
        return flits;
      });
  return result;
}

std::size_t ShardedSim::arena_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& shard : shards_) {
    bytes += shard->arena_bytes() +
             shard->depth_sum_by_cycle.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

void ShardedSim::flush_obs(double wall_seconds) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("sim.sharded.runs").add(1);
  m.gauge("sim.sharded.shards").set(plan_.shard_count);
  m.counter("sim.sharded.cross_shard_flits")
      .add(telemetry_.cross_shard_flits);
  m.gauge("sim.sharded.mailbox_peak")
      .set(static_cast<std::int64_t>(telemetry_.mailbox_peak));
  const std::uint64_t cap = 1'000'000;  // 1 ms/cycle ceiling per phase
  for (const auto& shard : shards_) {
    const Shard& sh = *shard;
    sh.flush_counts();
    // Per-shard queued packets left at end of run.
    m.gauge("sim.sharded.shard." + std::to_string(sh.index) + ".depth_sum")
        .set(static_cast<std::int64_t>(sh.switch_depth_sum));
    // Arena node residency: with first-touch this is the node the
    // shard's arena pages live on.
    m.gauge("sim.sharded.shard." + std::to_string(sh.index) + ".numa_node")
        .set(static_cast<std::int64_t>(sh.numa_node));
    // Sampled phase costs, ns per sampled cycle: one histogram sample per
    // shard, so the spread across samples is the load skew.
    if (sh.timed_cycles == 0) continue;
    m.histogram("sim.sharded.barrier_wait_ns", cap)
        .record(sh.barrier_wait_ns / sh.timed_cycles);
    m.histogram("sim.phase.propose_ns", cap)
        .record(sh.phase_ns[0] / sh.timed_cycles);
    m.histogram("sim.phase.admit_ns", cap)
        .record(sh.phase_ns[1] / sh.timed_cycles);
    m.histogram("sim.phase.resolve_ns", cap)
        .record(sh.phase_ns[2] / sh.timed_cycles);
    m.histogram("sim.phase.mailbox_ns", cap)
        .record(sh.phase_ns[3] / sh.timed_cycles);
  }
  m.counter("sim.wall_us")
      .add(static_cast<std::uint64_t>(wall_seconds * 1e6));
}

std::vector<SimResult> load_sweep_sharded(
    const routing::NextHop& router, const TrafficPattern& traffic,
    const SimConfig& base, const std::vector<double>& rates,
    std::uint32_t shards,
    const fault::DegradedView* degraded,
    const std::vector<fault::FaultEvent>& fault_events) {
  NBCLOS_REQUIRE(fault_events.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  std::vector<SimResult> results;
  results.reserve(rates.size());
  for (const double rate : rates) {
    SimConfig config = base;
    config.injection_rate = rate;
    ShardedSim sim(router, traffic, config, shards, degraded, fault_events);
    results.push_back(sim.run());
  }
  return results;
}

}  // namespace nbclos::sim
