#include "nbclos/sim/sharded.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/sim/injection_rng.hpp"
#include "nbclos/util/active_set.hpp"

namespace nbclos::sim {

namespace {
constexpr std::uint32_t kTermRingInitialCapacity = 16;
}  // namespace

/// All mutable per-shard simulation state — one arena per worker, never
/// touched by any other thread.  Per-channel arrays and the `flying` /
/// `sendable` sets are locally indexed (plan.channel_local), and local ids
/// ascend with global channel id, so ascending sweeps over the sets visit
/// channels in the same relative order as PacketSim's global scan.
struct ShardedSim::Shard {
  struct InFlight {
    Packet packet;
    std::uint64_t arrival_cycle = 0;
    bool valid = false;
  };

  std::uint32_t index = 0;
  std::uint32_t term_lo = 0;  ///< owned terminal range [term_lo, term_hi)
  std::uint32_t term_hi = 0;

  // Per owned channel, locally indexed.
  std::vector<InFlight> flight;
  std::vector<std::uint32_t> q_head;
  std::vector<std::uint32_t> q_size;
  std::vector<std::uint32_t> pool_base;
  std::vector<std::uint32_t> queue_depth;
  std::vector<std::uint32_t> rr_last_winner;  ///< global id of last winner
  std::vector<std::uint8_t> dst_is_terminal;
  std::vector<std::uint8_t> is_terminal_source_queue;
  std::vector<std::uint32_t> channel_dst;
  std::uint32_t switch_slice_mask = 0;
  std::vector<Packet> switch_pool;               ///< the shard's queue arena
  std::vector<std::vector<Packet>> term_rings;
  ActiveSet flying;    ///< local channel ids
  ActiveSet sendable;  ///< local channel ids

  std::optional<fault::DegradedView> degraded;
  std::size_t next_fault = 0;
  std::uint32_t numa_node = 0;  ///< node the worker ran (and touched) on

  // Phase scratch.
  std::vector<Proposal> local_props;  ///< proposals targeting this shard
  std::vector<Proposal> merged;

  // Statistics, merged exactly after the run.
  std::uint64_t switch_depth_sum = 0;
  std::uint64_t switch_channel_count = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered_measured_flits = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_count = 0;
  QuantileHistogram latency_hist;
  std::vector<std::uint64_t> delivered_per_source;  ///< all T terminals
  std::vector<std::uint64_t> flow_sequence;         ///< owned range only
  std::vector<std::uint64_t> depth_sum_by_cycle;    ///< per cycle, replayed
  std::uint64_t next_packet_id = 0;
  std::uint64_t link_busy_flits = 0;
  std::uint64_t cross_flits = 0;
  std::uint64_t mailbox_peak = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t barrier_samples = 0;

  explicit Shard(std::uint64_t latency_max) : latency_hist(latency_max) {}
};

ShardedSim::ShardedSim(const routing::NextHop& router,
                       const TrafficPattern& traffic, SimConfig config,
                       std::uint32_t shards,
                       const fault::DegradedView* degraded,
                       std::vector<fault::FaultEvent> fault_events)
    : net_(&router.network()), router_(&router), traffic_(&traffic),
      config_(config), fault_events_(std::move(fault_events)),
      packet_rate_(config.injection_rate /
                   static_cast<double>(config.packet_size)) {
  const Network& net = *net_;
  NBCLOS_REQUIRE(net.finalized(), "network must be finalized");
  NBCLOS_REQUIRE(degraded == nullptr || &degraded->network() == &net,
                 "degraded view was built over a different network");
  NBCLOS_REQUIRE(fault_events_.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  NBCLOS_REQUIRE(config.injection_rate >= 0.0 && config.injection_rate <= 1.0,
                 "injection rate must be in [0, 1] flits/cycle");
  NBCLOS_REQUIRE(config.packet_size >= 1, "packets need at least one flit");
  NBCLOS_REQUIRE(config.queue_capacity >= 1, "queues need capacity >= 1");
  std::stable_sort(fault_events_.begin(), fault_events_.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  const auto terminal_vertices = net.terminals();
  terminal_count_ = static_cast<std::uint32_t>(terminal_vertices.size());
  NBCLOS_REQUIRE(traffic.terminal_count() == terminal_count_,
                 "traffic pattern size does not match network");
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    NBCLOS_REQUIRE(terminal_vertices[t] == t,
                   "terminals must be vertices [0, T) (library builders "
                   "guarantee this)");
  }
  config_.counter_injection = true;  // the sharded engine's only mode
  degraded_ = degraded;

  plan_ = ShardPlan::build(net, shards);
  const std::uint32_t shard_count = plan_.shard_count;
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;

  // Shard objects carry only metadata here; the heavy arena vectors are
  // allocated (and thus first-touched) inside each worker thread in
  // run_shard, so every arena's pages land on the NUMA node its worker
  // runs on.
  shards_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>(total);
    shard->index = s;
    shard->term_lo = plan_.terminal_begin[s];
    shard->term_hi = plan_.terminal_begin[s + 1];
    shards_.push_back(std::move(shard));
  }

  proposal_box_ = MailboxGrid<Proposal>(shard_count);
  ack_box_ = MailboxGrid<Ack>(shard_count);
  sync_ = std::make_unique<ShardSync>(shard_count);
  numa_ = NumaTopology::detect();
  if constexpr (obs::kEnabled) arm_recorder();
}

void ShardedSim::arm_recorder() {
  if (!config_.record_timeseries) return;
  obs::FlightRecorder::Config rec;
  rec.cadence = config_.record_cadence;
  rec.ring_capacity = config_.record_ring_capacity;
  rec.shards = plan_.shard_count;
  recorder_.configure(rec);
  // Same names, cadence, and capacity as the serial PacketSim recorder,
  // so after the per-shard sum these kInvariant series are bit-identical
  // to a serial recording of the same run at any shard count.
  rec_queue_depth_ =
      recorder_.series("sim.queue.depth_sum", obs::SeriesAgg::kSum);
  rec_active_flying_ =
      recorder_.series("sim.active.flying", obs::SeriesAgg::kSum);
  rec_active_sendable_ =
      recorder_.series("sim.active.sendable", obs::SeriesAgg::kSum);
  rec_busy_flits_ =
      recorder_.series("sim.link.busy_flits", obs::SeriesAgg::kSum);
  rec_injected_ =
      recorder_.series("sim.packets.injected", obs::SeriesAgg::kSum);
  rec_delivered_ =
      recorder_.series("sim.packets.delivered", obs::SeriesAgg::kSum);
  // Cross-shard fabric health: only meaningful relative to the shard
  // cut, so excluded from the shard-count-invariance contract.
  rec_mailbox_flits_ =
      recorder_.series("sim.mailbox.cross_flits", obs::SeriesAgg::kSum,
                       obs::SeriesScope::kShardTopology);
  rec_mailbox_peak_ =
      recorder_.series("sim.mailbox.peak", obs::SeriesAgg::kMax,
                       obs::SeriesScope::kShardTopology);
}

void ShardedSim::sample_recorder(Shard& sh, std::uint64_t now) {
  const std::uint32_t slot = sh.index;
  recorder_.record(rec_queue_depth_, slot, now,
                   static_cast<std::int64_t>(sh.switch_depth_sum));
  recorder_.record(rec_active_flying_, slot, now,
                   static_cast<std::int64_t>(sh.flying.size()));
  recorder_.record(rec_active_sendable_, slot, now,
                   static_cast<std::int64_t>(sh.sendable.size()));
  recorder_.record(rec_busy_flits_, slot, now,
                   static_cast<std::int64_t>(sh.link_busy_flits));
  recorder_.record(rec_injected_, slot, now,
                   static_cast<std::int64_t>(sh.injected));
  recorder_.record(rec_delivered_, slot, now,
                   static_cast<std::int64_t>(sh.delivered_packets));
  recorder_.record(rec_mailbox_flits_, slot, now,
                   static_cast<std::int64_t>(sh.cross_flits));
  recorder_.record(rec_mailbox_peak_, slot, now,
                   static_cast<std::int64_t>(sh.mailbox_peak));
}

void ShardedSim::init_shard_arena(std::uint32_t s) {
  Shard& sh = *shards_[s];
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  const auto slice = std::bit_ceil(config_.queue_capacity);
  const auto& owned = plan_.shard_channels[s];
  const auto count = static_cast<std::uint32_t>(owned.size());
  sh.flight.resize(count);
  sh.q_head.assign(count, 0);
  sh.q_size.assign(count, 0);
  sh.pool_base.assign(count, 0);
  sh.queue_depth.assign(count, 0);
  sh.rr_last_winner.assign(count, 0);
  sh.flying = ActiveSet(count);
  sh.sendable = ActiveSet(count);
  sh.dst_is_terminal.assign(count, 0);
  sh.is_terminal_source_queue.assign(count, 0);
  sh.channel_dst.assign(count, 0);
  sh.switch_slice_mask = slice - 1;
  std::uint32_t switch_channels = 0;
  std::uint32_t term_channels = 0;
  for (std::uint32_t li = 0; li < count; ++li) {
    const auto c = owned[li];
    const auto dst = net_->channel_dst(c);
    sh.channel_dst[li] = dst;
    sh.dst_is_terminal[li] = net_->vertex(dst).kind == VertexKind::kTerminal;
    if (net_->vertex(net_->channel_src(c)).kind == VertexKind::kTerminal) {
      sh.is_terminal_source_queue[li] = 1;
      sh.pool_base[li] = term_channels++;
    } else {
      sh.pool_base[li] = switch_channels * slice;
      ++switch_channels;
    }
  }
  sh.switch_pool.resize(std::size_t{switch_channels} * slice);
  sh.term_rings.resize(term_channels);
  sh.switch_channel_count = switch_channels;
  sh.delivered_per_source.assign(terminal_count_, 0);
  sh.flow_sequence.assign(sh.term_hi - sh.term_lo, 0);
  sh.depth_sum_by_cycle.assign(total, 0);
  if (degraded_ != nullptr) sh.degraded.emplace(*degraded_);
}

ShardedSim::~ShardedSim() = default;

bool ShardedSim::channel_usable(const Shard& sh, std::uint32_t channel) const {
  return !sh.degraded.has_value() || sh.degraded->channel_alive(channel);
}

void ShardedSim::queue_push(Shard& sh, std::uint32_t channel,
                            const Packet& packet) {
  const auto li = plan_.channel_local[channel];
  if (sh.is_terminal_source_queue[li]) {
    auto& ring = sh.term_rings[sh.pool_base[li]];
    if (sh.q_size[li] == ring.size()) {
      std::vector<Packet> bigger(
          ring.empty() ? kTermRingInitialCapacity : ring.size() * 2);
      for (std::uint32_t i = 0; i < sh.q_size[li]; ++i) {
        bigger[i] = ring[(sh.q_head[li] + i) & (ring.size() - 1)];
      }
      ring = std::move(bigger);
      sh.q_head[li] = 0;
    }
    ring[(sh.q_head[li] + sh.q_size[li]) & (ring.size() - 1)] = packet;
  } else {
    sh.switch_pool[sh.pool_base[li] +
                   ((sh.q_head[li] + sh.q_size[li]) &
                    sh.switch_slice_mask)] = packet;
    ++sh.queue_depth[li];
    ++sh.switch_depth_sum;
  }
  ++sh.q_size[li];
  sh.sendable.insert(li);
}

Packet ShardedSim::queue_pop(Shard& sh, std::uint32_t channel) {
  const auto li = plan_.channel_local[channel];
  NBCLOS_ASSERT(sh.q_size[li] > 0);
  Packet packet;
  if (sh.is_terminal_source_queue[li]) {
    auto& ring = sh.term_rings[sh.pool_base[li]];
    packet = ring[sh.q_head[li]];
    sh.q_head[li] = (sh.q_head[li] + 1) &
                    (static_cast<std::uint32_t>(ring.size()) - 1);
  } else {
    packet = sh.switch_pool[sh.pool_base[li] + sh.q_head[li]];
    sh.q_head[li] = (sh.q_head[li] + 1) & sh.switch_slice_mask;
    --sh.queue_depth[li];
    --sh.switch_depth_sum;
  }
  --sh.q_size[li];
  return packet;
}

void ShardedSim::queue_clear(Shard& sh, std::uint32_t channel) {
  const auto li = plan_.channel_local[channel];
  if (!sh.is_terminal_source_queue[li]) {
    sh.switch_depth_sum -= sh.queue_depth[li];
    sh.queue_depth[li] = 0;
  }
  sh.q_size[li] = 0;
  sh.q_head[li] = 0;
}

void ShardedSim::deliver(Shard& sh, const Packet& packet, std::uint64_t now,
                         bool measuring) {
  ++sh.delivered_packets;
  if (!measuring) return;
  sh.delivered_measured_flits += packet.size_flits;
  sh.delivered_per_source[packet.src_terminal] += packet.size_flits;
  if (packet.injected_cycle >= config_.warmup_cycles) {
    const std::uint64_t latency = now - packet.injected_cycle;
    sh.latency_sum += latency;
    ++sh.latency_count;
    sh.latency_hist.add(latency);
  }
}

void ShardedSim::cycle_faults(Shard& sh, std::uint64_t now) {
  bool applied = false;
  while (sh.next_fault < fault_events_.size() &&
         fault_events_[sh.next_fault].cycle <= now) {
    sh.degraded->apply(fault_events_[sh.next_fault]);
    ++sh.next_fault;
    applied = true;
  }
  if (!applied) return;
  const auto& owned = plan_.shard_channels[sh.index];
  sh.flying.for_each([&](std::uint32_t li) {
    if (sh.flight[li].valid && !sh.degraded->channel_alive(owned[li])) {
      ++sh.dropped;
      sh.flight[li].valid = false;
    }
  });
  sh.sendable.for_each([&](std::uint32_t li) {
    if (sh.q_size[li] > 0 && !sh.degraded->channel_alive(owned[li])) {
      sh.dropped += sh.q_size[li];
      queue_clear(sh, owned[li]);
    }
  });
}

void ShardedSim::phase_propose(Shard& sh, std::uint64_t now, bool measuring) {
  const auto& owned = plan_.shard_channels[sh.index];
  sh.flying.sweep([&](std::uint32_t li) {
    auto& fl = sh.flight[li];
    if (!fl.valid) return false;  // purged by a fault since the last sweep
    if (fl.arrival_cycle > now) return true;
    if (sh.dst_is_terminal[li]) {
      NBCLOS_ASSERT(sh.channel_dst[li] == fl.packet.dst_terminal);
      deliver(sh, fl.packet, now, measuring);
      fl.valid = false;
      return false;
    }
    const std::uint32_t at = sh.channel_dst[li];
    const auto next = router_->next_channel_from(at, fl.packet.src_terminal,
                                                 fl.packet.dst_terminal);
    if (next == fault::kNoRoute || !channel_usable(sh, next)) {
      ++sh.dropped;
      fl.valid = false;
      return false;
    }
    NBCLOS_ASSERT(net_->channel_src(next) == at);
    // Propose admission to the owner of the chosen channel.  The
    // candidate leaves the set but keeps its valid flight; the ack in
    // phase C either clears it (winner) or re-inserts it (loser —
    // backpressure, exactly PacketSim).
    const Proposal proposal{next, owned[li], fl.packet};
    const auto owner = plan_.channel_owner[next];
    if (owner == sh.index) {
      sh.local_props.push_back(proposal);
    } else {
      proposal_box_.box(sh.index, owner).push_back(proposal);
      sh.cross_flits += fl.packet.size_flits;
    }
    return false;
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
  const auto li = plan_.channel_local[ack.from];
  if (ack.accepted) {
    sh.flight[li].valid = false;
  } else {
    sh.flying.insert(li);
  }
}

void ShardedSim::phase_admit(Shard& sh) {
  // Merge this cycle's proposals (local + one mailbox per peer) and sort
  // by (target, from): per target the candidates are then in ascending
  // proposing-channel order — the same order PacketSim's global
  // ascending scan produces — so the round-robin arbitration below is
  // verbatim step_arrivals phase 2.
  auto& merged = sh.merged;
  merged.clear();
  merged.insert(merged.end(), sh.local_props.begin(), sh.local_props.end());
  sh.local_props.clear();
  proposal_box_.drain_to(sh.index, [&](std::uint32_t,
                                       const std::vector<Proposal>& box) {
    sh.mailbox_peak = std::max<std::uint64_t>(sh.mailbox_peak, box.size());
    merged.insert(merged.end(), box.begin(), box.end());
  });
  std::sort(merged.begin(), merged.end(),
            [](const Proposal& a, const Proposal& b) {
              return a.target < b.target ||
                     (a.target == b.target && a.from < b.from);
            });
  std::size_t g = 0;
  while (g < merged.size()) {
    const std::uint32_t target = merged[g].target;
    std::size_t end = g + 1;
    while (end < merged.size() && merged[end].target == target) ++end;
    const std::size_t n = end - g;
    const auto li = plan_.channel_local[target];
    std::size_t start = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (merged[g + i].from > sh.rr_last_winner[li]) {
        start = i;
        break;
      }
    }
    std::size_t i = 0;
    for (; i < n && sh.queue_depth[li] < config_.queue_capacity; ++i) {
      const Proposal& winner = merged[g + (start + i) % n];
      queue_push(sh, target, winner.packet);
      sh.rr_last_winner[li] = winner.from;
      send_ack(sh, winner.from, true);
    }
    for (; i < n; ++i) {
      send_ack(sh, merged[g + (start + i) % n].from, false);
    }
    g = end;
  }
}

void ShardedSim::phase_resolve(Shard& sh, std::uint64_t now) {
  // Acks first: an accepted candidate frees its channel, which may load
  // a new packet in this cycle's transmissions (as in PacketSim, where
  // step_arrivals completes before step_transmissions).
  ack_box_.drain_to(sh.index, [&](std::uint32_t, const std::vector<Ack>& box) {
    for (const Ack& ack : box) apply_ack(sh, ack);
  });

  // Transmissions (PacketSim::step_transmissions over owned channels).
  const auto& owned = plan_.shard_channels[sh.index];
  sh.sendable.sweep([&](std::uint32_t li) {
    if (sh.q_size[li] == 0) return false;  // fault-purged since the last sweep
    const auto c = owned[li];
    auto& fl = sh.flight[li];
    if (!fl.valid && channel_usable(sh, c)) {
      fl.packet = queue_pop(sh, c);
      fl.valid = true;
      fl.arrival_cycle = now + fl.packet.size_flits;
      sh.link_busy_flits += fl.packet.size_flits;
      sh.flying.insert(li);
    }
    return sh.q_size[li] != 0;
  });

  // Injection over the owned terminal range with the counter-based RNG:
  // every draw is a pure function of (seed, cycle, terminal), so the
  // stream is independent of which shard evaluates which terminal.
  for (std::uint32_t t = sh.term_lo; t < sh.term_hi; ++t) {
    SplitMix64 sm(injection_counter_state(config_.seed, now, t));
    if (!injection_bernoulli(sm, packet_rate_)) continue;
    Xoshiro256 dest_rng(sm.next());
    const auto dst = traffic_->destination(t, dest_rng);
    if (!dst.has_value()) continue;
    Packet packet;
    packet.id = sh.next_packet_id++;
    packet.src_terminal = t;
    packet.dst_terminal = *dst;
    packet.size_flits = config_.packet_size;
    packet.injected_cycle = now;
    packet.flow_sequence = sh.flow_sequence[t - sh.term_lo]++;
    const auto channel =
        router_->next_channel_from(t, packet.src_terminal, packet.dst_terminal);
    ++sh.injected;
    if (channel == fault::kNoRoute || !channel_usable(sh, channel)) {
      ++sh.dropped;
      continue;
    }
    // A terminal's uplink departs from the terminal vertex, so the queue
    // is always shard-local.
    NBCLOS_ASSERT(plan_.channel_owner[channel] == sh.index);
    queue_push(sh, channel, packet);
  }
}

void ShardedSim::run_shard(std::uint32_t s) {
  try {
    Shard& sh = *shards_[s];
    // First-touch: the arena vectors are allocated here, on the worker's
    // own thread, so their pages land on the node the worker runs on.
    init_shard_arena(s);
    sh.numa_node = current_numa_node(numa_);
    const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
    for (std::uint64_t now = 0; now < total; ++now) {
      if (sync_->poisoned()) {
        sync_->arrive_and_drop();
        return;
      }
      const bool measuring = now >= config_.warmup_cycles;
      if (sh.degraded.has_value()) cycle_faults(sh, now);
      // Sampled barrier timing: every 64th cycle when obs is on, skipping
      // cycle 0, whose first barrier also waits out the other workers'
      // start-up and arena set-up.
      bool timed = false;
      if constexpr (obs::kEnabled) {
        timed = (now & 63u) == 63u && obs::enabled();
      }
      phase_propose(sh, now, measuring);
      if (timed) {
        using clock = std::chrono::steady_clock;
        const auto t0 = clock::now();
        sync_->arrive_and_wait();
        const auto t1 = clock::now();
        phase_admit(sh);
        const auto t2 = clock::now();
        sync_->arrive_and_wait();
        const auto t3 = clock::now();
        sh.barrier_wait_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                (t1 - t0) + (t3 - t2))
                .count());
        ++sh.barrier_samples;
      } else {
        sync_->arrive_and_wait();
        phase_admit(sh);
        sync_->arrive_and_wait();
      }
      phase_resolve(sh, now);
      sh.depth_sum_by_cycle[now] = sh.switch_depth_sum;
      if constexpr (obs::kEnabled) {
        if (recorder_.want(now)) sample_recorder(sh, now);
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
    for (const auto& fl : sh.flight) {
      if (fl.valid) ++telemetry_.remaining_packets;
    }
    for (const auto q : sh.q_size) telemetry_.remaining_packets += q;
  }

  result.accepted_throughput =
      static_cast<double>(delivered_measured_flits) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(terminal_count_));
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

  // Fairness extremes over sources that injected anything, in ascending
  // terminal order (PacketSim's loop).  flow_sequence lives with the
  // injecting shard; deliveries are summed across all shards.
  bool first_flow = true;
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    const Shard& owner = *shards_[plan_.shard_of_vertex(t)];
    if (owner.flow_sequence[t - owner.term_lo] == 0) continue;
    std::uint64_t delivered_flits = 0;
    for (const auto& shard : shards_) {
      delivered_flits += shard->delivered_per_source[t];
    }
    const double rate = static_cast<double>(delivered_flits) /
                        static_cast<double>(config_.measure_cycles);
    if (first_flow) {
      result.min_flow_throughput = rate;
      result.max_flow_throughput = rate;
      first_flow = false;
    } else {
      result.min_flow_throughput = std::min(result.min_flow_throughput, rate);
      result.max_flow_throughput = std::max(result.max_flow_throughput, rate);
    }
  }
  return result;
}

std::size_t ShardedSim::arena_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& shard : shards_) {
    const Shard& sh = *shard;
    bytes += sh.switch_pool.capacity() * sizeof(Packet);
    for (const auto& ring : sh.term_rings) {
      bytes += ring.capacity() * sizeof(Packet);
    }
    bytes += sh.term_rings.capacity() * sizeof(std::vector<Packet>);
    bytes += sh.flight.capacity() * sizeof(Shard::InFlight);
    bytes += (sh.q_head.capacity() + sh.q_size.capacity() +
              sh.pool_base.capacity() + sh.queue_depth.capacity() +
              sh.rr_last_winner.capacity() + sh.channel_dst.capacity()) *
             sizeof(std::uint32_t);
    bytes += sh.flying.bytes() + sh.sendable.bytes();
    bytes += sh.dst_is_terminal.capacity() +
             sh.is_terminal_source_queue.capacity();
    bytes += (sh.delivered_per_source.capacity() +
              sh.flow_sequence.capacity() +
              sh.depth_sum_by_cycle.capacity()) *
             sizeof(std::uint64_t);
  }
  return bytes;
}

void ShardedSim::flush_obs(double wall_seconds) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("sim.sharded.runs").add(1);
  m.gauge("sim.sharded.shards").set(plan_.shard_count);
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t busy = 0;
  for (const auto& shard : shards_) {
    injected += shard->injected;
    delivered += shard->delivered_packets;
    dropped += shard->dropped;
    busy += shard->link_busy_flits;
  }
  m.counter("sim.packets.injected").add(injected);
  m.counter("sim.packets.delivered").add(delivered);
  m.counter("sim.packets.dropped").add(dropped);
  m.counter("sim.link.busy_flit_cycles").add(busy);
  m.counter("sim.sharded.cross_shard_flits")
      .add(telemetry_.cross_shard_flits);
  m.gauge("sim.sharded.mailbox_peak")
      .set(static_cast<std::int64_t>(telemetry_.mailbox_peak));
  // Per-shard arena occupancy: queued packets left at end of run plus
  // the arena footprint, one gauge pair per shard.
  for (const auto& shard : shards_) {
    const Shard& sh = *shard;
    m.gauge("sim.sharded.shard." + std::to_string(sh.index) + ".depth_sum")
        .set(static_cast<std::int64_t>(sh.switch_depth_sum));
    // Arena node residency: with first-touch this is the node the
    // shard's arena pages live on.
    m.gauge("sim.sharded.shard." + std::to_string(sh.index) + ".numa_node")
        .set(static_cast<std::int64_t>(sh.numa_node));
    // Sampled epoch-barrier wait: mean ns per sampled cycle, per shard.
    if (sh.barrier_samples > 0) {
      m.histogram("sim.sharded.barrier_wait_ns", 1'000'000)
          .record(sh.barrier_wait_ns / sh.barrier_samples);
    }
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
