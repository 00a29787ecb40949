#include "nbclos/flow/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>

#include "nbclos/obs/trace.hpp"
#include "nbclos/sim/injection_rng.hpp"

namespace nbclos::flow {

namespace {

/// Channels whose source vertex is a switch — each owns `vcs` finite
/// buffers; the rest are terminal NIC channels with one unbounded ring.
std::uint32_t count_switch_source_channels(const Network& net) {
  std::uint32_t count = 0;
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    if (net.vertex(net.channel_src(c)).kind != VertexKind::kTerminal) ++count;
  }
  return count;
}

}  // namespace

FlowSim::FlowSim(std::shared_ptr<const routing::NextHop> routes,
                 const sim::TrafficPattern& traffic, FlowConfig config,
                 const fault::DegradedView* degraded,
                 std::vector<fault::FaultEvent> fault_events)
    : routes_(std::move(routes)),
      net_(&routes_->network()),
      traffic_(&traffic),
      config_(config),
      fault_events_(std::move(fault_events)),
      buf_base_(net_->channel_count(), 0),
      is_nic_(net_->channel_count(), 0),
      channel_dst_(net_->channel_count(), 0),
      dst_is_terminal_(net_->channel_count(), 0),
      next_vc_(net_->channel_count(), 0),
      channel_flits_(net_->channel_count(), 0),
      active_(net_->channel_count()),
      pool_(count_switch_source_channels(routes_->network()) * config.vcs,
            net_->channel_count() -
                count_switch_source_channels(routes_->network()),
            config.buffer_flits, config.packet_flits),
      rng_(config.seed),
      latency_hist_(config.warmup_cycles + config.measure_cycles),
      stall_hist_(config.warmup_cycles + config.measure_cycles) {
  config.validate();
  NBCLOS_REQUIRE(degraded == nullptr || &degraded->network() == net_,
                 "degraded view was built over a different network");
  NBCLOS_REQUIRE(fault_events_.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  if (degraded != nullptr) degraded_.emplace(*degraded);
  std::stable_sort(fault_events_.begin(), fault_events_.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  head_reservation_ = config.head_reservation_flits();
  packet_rate_ =
      config.injection_rate / static_cast<double>(config.packet_flits);
  terminal_vertices_ = net_->terminals();
  NBCLOS_REQUIRE(traffic.terminal_count() == terminal_vertices_.size(),
                 "traffic pattern size does not match network");
  for (std::uint32_t t = 0; t < terminal_vertices_.size(); ++t) {
    NBCLOS_REQUIRE(terminal_vertices_[t] == t,
                   "terminals must be vertices [0, T) (library builders "
                   "guarantee this)");
  }
  flow_sequence_.assign(terminal_vertices_.size(), 0);
  delivered_per_source_.assign(terminal_vertices_.size(), 0);

  // Buffer id assignment: switch channels take `vcs` consecutive ids in
  // channel order, NIC channels one id each after all switch buffers —
  // matching the FlitBufferPool address split.  Only the id→channel
  // decoding tables are materialized (per channel); per-buffer state is
  // slot-sparse inside the pool.
  switch_buffer_count_ = pool_.switch_buffer_count();
  channel_of_switch_idx_.assign(switch_buffer_count_ / config.vcs, 0);
  channel_of_nic_idx_.assign(
      pool_.buffer_count() - switch_buffer_count_, 0);
  std::uint32_t switch_idx = 0;
  std::uint32_t nic_idx = 0;
  for (std::uint32_t c = 0; c < net_->channel_count(); ++c) {
    channel_dst_[c] = net_->channel_dst(c);
    dst_is_terminal_[c] =
        net_->vertex(channel_dst_[c]).kind == VertexKind::kTerminal;
    if (net_->vertex(net_->channel_src(c)).kind == VertexKind::kTerminal) {
      is_nic_[c] = 1;
      buf_base_[c] = switch_buffer_count_ + nic_idx;
      channel_of_nic_idx_[nic_idx++] = c;
    } else {
      buf_base_[c] = switch_idx * config.vcs;
      channel_of_switch_idx_[switch_idx++] = c;
    }
  }
  switch_channel_count_ = switch_idx;

  if (config.backpressure == Backpressure::kCredit) {
    ledger_ = std::make_unique<CreditLedger>(pool_, config.credit_delay);
  } else {
    onoff_ =
        std::make_unique<OnOffSignal>(pool_, config.onoff_off_threshold());
  }
  peak_per_vc_.assign(config.vcs, 0);
  busy_wires_.reserve(net_->channel_count());
  link_busy_flits_.assign(net_->channel_count(), 0);
  stall_metric_ = &detail::stall_metric();
  if constexpr (obs::kEnabled) arm_recorder();
}

void FlowSim::arm_recorder() {
  if (!config_.record_timeseries) return;
  obs::FlightRecorder::Config rec;
  rec.cadence = config_.record_cadence;
  rec.ring_capacity = config_.record_ring_capacity;
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
  recorder_.record(rec_in_system_, 0, now_,
                   static_cast<std::int64_t>(flits_in_system_));
  recorder_.record(rec_buffer_occupancy_, 0, now_,
                   static_cast<std::int64_t>(pool_.switch_flits_total()));
  recorder_.record(rec_credit_stalls_, 0, now_,
                   static_cast<std::int64_t>(credit_stall_cycles_));
  recorder_.record(rec_vc_stalls_, 0, now_,
                   static_cast<std::int64_t>(vc_stall_cycles_));
  recorder_.record(rec_blocked_heads_, 0, now_,
                   static_cast<std::int64_t>(blocked_heads_));
  recorder_.record(rec_injected_, 0, now_,
                   static_cast<std::int64_t>(injected_));
  recorder_.record(rec_delivered_, 0, now_,
                   static_cast<std::int64_t>(delivered_packets_));
}

void FlowSim::note_blocked(std::uint32_t s, bool credit_block) {
  if (credit_block) {
    ++credit_stall_cycles_;
  } else {
    ++vc_stall_cycles_;
  }
  FlitBufferPool::BufferSlot& sl = pool_.slot(s);
  if (sl.blocked_since_plus1 == 0) {
    sl.blocked_since_plus1 = now_ + 1;
    ++blocked_heads_;
  }
}

void FlowSim::note_unblocked(std::uint32_t s) {
  FlitBufferPool::BufferSlot& sl = pool_.slot(s);
  if (sl.blocked_since_plus1 == 0) return;
  const std::uint64_t duration = now_ - (sl.blocked_since_plus1 - 1);
  sl.blocked_since_plus1 = 0;
  --blocked_heads_;
  stall_stats_.add(static_cast<double>(duration));
  stall_duration_sum_ += duration;
  ++stall_episode_count_;
  stall_hist_.add(duration);
  stall_metric_->record(duration);
}

void FlowSim::apply_due_faults() {
  while (next_fault_ < fault_events_.size() &&
         fault_events_[next_fault_].cycle <= now_) {
    degraded_->apply(fault_events_[next_fault_]);
    ++next_fault_;
  }
}

std::uint32_t FlowSim::allocate_downstream(std::uint32_t from_vc,
                                           const sim::Packet& packet,
                                           std::uint32_t at_vertex,
                                           bool* credit_block,
                                           std::uint32_t* slot) {
  ++route_lookups_;
  const std::uint32_t nc = routes_->next_channel_from(
      at_vertex, packet.src_terminal, packet.dst_terminal);
  NBCLOS_DEBUG_CHECK(net_->channel_src(nc) == at_vertex,
                     "route cache returned a foreign channel");
  // A dead next channel blocks the head in place (fail-stop: the worm
  // waits, it is never purged) — accounted as a credit stall.
  if (!channel_usable(nc)) {
    *credit_block = true;
    return kNone;
  }
  // First-free VC scan starting at the packet's current VC ("stay in
  // lane when possible"); a VC is usable when no other packet holds its
  // write claim and backpressure admits the head reservation.
  bool saw_credit_block = false;
  std::uint32_t nv = from_vc;
  for (std::uint32_t j = 0; j < config_.vcs;
       ++j, nv = detail::next_vc(nv, config_.vcs)) {
    const std::uint32_t nb = buf_base_[nc] + nv;
    const std::uint32_t s = pool_.slot_id(nb);
    if (s != FlitBufferPool::kNoSlot && pool_.slot(s).claim != kNone) continue;
    if (!backpressure_admits(pool_, s, head_reservation_,
                             ledger_ != nullptr)) {
      saw_credit_block = true;
      continue;
    }
    *slot = s;
    return nb;
  }
  *credit_block = saw_credit_block;
  return kNone;
}

bool FlowSim::try_transmit(std::uint32_t c) {
  // A dead channel transmits nothing: its queued flits wait in place
  // (and eventually trip the watchdog if nothing recovers them).
  if (!channel_usable(c)) return false;
  constexpr std::uint32_t kNoSlot = FlitBufferPool::kNoSlot;
  const std::uint32_t vc_count = is_nic_[c] ? 1u : config_.vcs;
  std::uint32_t vc = next_vc_[c];
  for (std::uint32_t k = 0; k < vc_count;
       ++k, vc = detail::next_vc(vc, vc_count)) {
    // Each buffer's slot is resolved once; a bind (the downstream claim)
    // may grow the slab, so slot references are re-fetched after it.
    const std::uint32_t b = buf_base_[c] + vc;
    const std::uint32_t s = pool_.slot_id(b);
    if (s == kNoSlot || pool_.slot(s).size == 0) continue;
    const FlitRef flit = pool_.front_at(s);
    std::uint32_t target = kEject;
    std::uint32_t target_slot = kNoSlot;
    if (dst_is_terminal_[c]) {
      // The terminal sink always accepts.
    } else if (flit.flit_index == 0) {
      NBCLOS_ASSERT(pool_.slot(s).out_alloc == kNone);
      bool credit_block = false;
      target = allocate_downstream(vc, packets_.at(flit.packet_slot),
                                   channel_dst_[c], &credit_block,
                                   &target_slot);
      if (target == kNone) {
        note_blocked(s, credit_block);
        continue;  // this VC stalls; the next may still use the channel
      }
      if (target_slot == kNoSlot) target_slot = pool_.bind(target);
      pool_.slot(target_slot).claim = flit.packet_slot;
      pool_.slot(s).out_alloc = target;
    } else {
      target = pool_.slot(s).out_alloc;
      NBCLOS_ASSERT(target != kNone);
      target_slot = pool_.slot_id(target);
      NBCLOS_ASSERT(target_slot != kNoSlot);  // the worm's claim pins it
      // Wormhole body flits re-check backpressure every cycle; VCT
      // reserved the whole packet at the head, so bodies stream freely.
      if (config_.switching == Switching::kWormhole &&
          !backpressure_admits(pool_, target_slot, 1, ledger_ != nullptr)) {
        note_blocked(s, true);
        continue;
      }
    }
    pool_.pop_at(s);
    --channel_flits_[c];
    if (b < switch_buffer_count_) {
      if (ledger_ != nullptr) ledger_->schedule_return_at(s, now_);
      if (onoff_ != nullptr) onoff_->mark_dirty_at(s);
    }
    if (target != kEject && ledger_ != nullptr) {
      ledger_->consume_at(target_slot);
    }
    if (flit.flit_index + 1 == config_.packet_flits) {
      pool_.slot(s).out_alloc = kNone;
    }
    busy_wires_.push_back(BusyWire{c, target, target_slot, flit});
    link_busy_flits_[c] += 1;
    ++flits_moved_epoch_;
    note_unblocked(s);
    pool_.maybe_release_at(s);  // drained + unblocked: recycle the slot
    next_vc_[c] = detail::next_vc(vc, vc_count);
    return true;
  }
  return false;
}

void FlowSim::eject(FlitRef flit) {
  const sim::Packet& packet = packets_.at(flit.packet_slot);
  --flits_in_system_;
  const bool tail = flit.flit_index + 1 == config_.packet_flits;
  if (tail) ++delivered_packets_;
  if (measuring_) {
    // Flit-level accrual: throughput counts every flit ejected inside
    // the window (PacketSim books the whole packet at once; for 1-flit
    // packets — the golden regime — the two are identical).
    ++delivered_measured_flits_;
    ++delivered_per_source_[packet.src_terminal];
    if (tail && packet.injected_cycle >= config_.warmup_cycles) {
      const std::uint64_t latency = now_ - packet.injected_cycle;
      latency_.add(static_cast<double>(latency));
      latency_sum_ += latency;
      ++latency_count_;
      latency_hist_.add(latency);
    }
  }
  if (tail) packets_.release(flit.packet_slot);
}

void FlowSim::step_arrivals() {
  // The wires are in ascending channel order — the transmission sweep is
  // ascending and each channel moves at most one flit per cycle — so the
  // latency accumulators see deliveries in the order PacketSim's flying_
  // sweep produces (bit-reproducibility of Welford sums).
  NBCLOS_DEBUG_CHECK(
      std::is_sorted(busy_wires_.begin(), busy_wires_.end(),
                     [](const BusyWire& a, const BusyWire& b) {
                       return a.channel < b.channel;
                     }),
      "busy wires must arrive in ascending channel order");
  for (const auto& w : busy_wires_) {
    if (w.target == kEject) {
      eject(w.flit);
      continue;
    }
    NBCLOS_DEBUG_CHECK(pool_.slot_id(w.target) == w.target_slot,
                       "a wire's target slot must stay bound until landing");
    pool_.push_at(w.target_slot, w.flit);
    const std::uint32_t oc = owner_channel_of(w.target);
    ++channel_flits_[oc];
    active_.insert(oc);
    if (onoff_ != nullptr) onoff_->mark_dirty_at(w.target_slot);
    FlitBufferPool::BufferSlot& sl = pool_.slot(w.target_slot);
    const std::uint32_t vc = w.target - buf_base_[oc];
    if (sl.size > peak_per_vc_[vc]) peak_per_vc_[vc] = sl.size;
    if (w.flit.flit_index + 1 == config_.packet_flits) {
      // Tail landed: the VC is whole again and accepts a new claimant.
      NBCLOS_ASSERT(sl.claim == w.flit.packet_slot);
      sl.claim = kNone;
    }
  }
  busy_wires_.clear();
}

void FlowSim::step_transmissions() {
  // Only try_transmit drains a channel, so every member still holds flits.
  active_.sweep([&](std::uint32_t c) {
    (void)try_transmit(c);
    return channel_flits_[c] != 0;
  });
}

void FlowSim::inject_packet(std::uint32_t t, std::uint32_t dst) {
  sim::Packet packet;
  packet.id = next_packet_id_++;
  packet.src_terminal = terminal_vertices_[t];
  packet.dst_terminal = terminal_vertices_[dst];
  packet.size_flits = config_.packet_flits;
  packet.injected_cycle = now_;
  packet.flow_sequence = flow_sequence_[t]++;
  ++route_lookups_;
  const std::uint32_t first = routes_->next_channel_from(
      terminal_vertices_[t], packet.src_terminal, packet.dst_terminal);
  NBCLOS_DEBUG_CHECK(is_nic_[first] != 0,
                     "first hop must leave through the source NIC");
  ++injected_;
  // A dead NIC uplink is the one place a packet is dropped: it never
  // entered the network, so there is nothing to purge or conserve.
  if (!channel_usable(first)) {
    ++dropped_;
    return;
  }
  pool_.push_packet(buf_base_[first], packets_.acquire(packet));
  channel_flits_[first] += config_.packet_flits;
  active_.insert(first);
  flits_in_system_ += config_.packet_flits;
  if (packets_.live() > peak_live_packets_) {
    peak_live_packets_ = packets_.live();
  }
}

void FlowSim::step_injection() {
  const auto terminal_count =
      static_cast<std::uint32_t>(terminal_vertices_.size());
  if (config_.counter_injection) {
    // Every draw is a pure function of (seed, cycle, terminal) — the
    // discipline ShardedFlowSim replays over its owned terminal ranges.
    for (std::uint32_t t = 0; t < terminal_count; ++t) {
      SplitMix64 sm(sim::injection_counter_state(config_.seed, now_, t));
      if (!sim::injection_bernoulli(sm, packet_rate_)) continue;
      Xoshiro256 dest_rng(sm.next());
      const auto dst = traffic_->destination(t, dest_rng);
      if (!dst.has_value()) continue;
      inject_packet(t, *dst);
    }
    return;
  }
  // Mirrors PacketSim::step_injection draw for draw (one bernoulli, then
  // one destination draw, terminals ascending) — the shared RNG sequence
  // is what makes the cross-engine golden equivalence exact.
  for (std::uint32_t t = 0; t < terminal_count; ++t) {
    if (!rng_.bernoulli(packet_rate_)) continue;
    const auto dst = traffic_->destination(t, rng_);
    if (!dst.has_value()) continue;
    inject_packet(t, *dst);
  }
}

bool FlowSim::watchdog_tripped() {
  if (config_.watchdog_epoch == 0) return false;
  if ((now_ + 1) % config_.watchdog_epoch != 0) return false;
  // Piggyback the credit-conservation audit on the epoch boundary: O(B)
  // every epoch cycles is invisible, and a ledger bug surfaces here long
  // before it corrupts results.
  if (ledger_ != nullptr) NBCLOS_ASSERT(credit_conservation_holds());
  if (flits_in_system_ > 0 && flits_moved_epoch_ == 0) {
    deadlocked_ = true;
    return true;
  }
  flits_moved_epoch_ = 0;
  return false;
}

void FlowSim::fill_deadlock_diag(FlowResult& result) const {
  // Live slots iterate in allocation order; collect every occupied
  // buffer, then sort and truncate so the sample is the 8 smallest ids —
  // exactly what the dense ascending scan used to produce.
  constexpr std::size_t kMaxSample = 8;
  std::vector<std::uint32_t> occupied;
  pool_.for_each_live([&](std::uint32_t b, std::uint32_t,
                          const FlitBufferPool::BufferSlot& sl) {
    if (sl.size > 0) occupied.push_back(b);
  });
  std::sort(occupied.begin(), occupied.end());
  if (occupied.size() > kMaxSample) occupied.resize(kMaxSample);
  result.stuck_buffers = std::move(occupied);
}

namespace detail {

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

void FlowSim::capture_forensics() {
  forensics_.valid = true;
  forensics_.trip_cycle = now_;
  forensics_.stuck_flits = flits_in_system_;
  // Blocked FIFOs are exactly the live slots with blocked_since set;
  // collection order is allocation order, which is fine because
  // finalize_forensics sorts by buffer id.
  pool_.for_each_live([&](std::uint32_t b, std::uint32_t s,
                          const FlitBufferPool::BufferSlot& sl) {
    if (sl.blocked_since_plus1 == 0) return;
    BlockedBufferReport report;
    report.buffer = b;
    report.channel = owner_channel_of(b);
    report.occupancy = sl.size;
    report.blocked_since = sl.blocked_since_plus1 - 1;
    if (sl.size > 0) {
      const FlitRef head = pool_.front_at(s);
      const std::uint32_t c = report.channel;
      if (head.flit_index > 0) {
        // Body flit: the worm already holds its downstream allocation —
        // that buffer IS the wait edge, exactly.
        report.waiting_for = sl.out_alloc;
      } else if (!dst_is_terminal_[c]) {
        // Head waiting to allocate: name the scan's first candidate —
        // next channel from the route source, scan-start VC.
        const sim::Packet& packet = packets_.at(head.packet_slot);
        const std::uint32_t nc = routes_->next_channel_from(
            channel_dst_[c], packet.src_terminal, packet.dst_terminal);
        const std::uint32_t from_vc =
            b < switch_buffer_count_ ? b - buf_base_[c] : 0u;
        report.waiting_for =
            buf_base_[nc] + (is_nic_[nc] ? 0u : from_vc % config_.vcs);
      }
    }
    forensics_.blocked.push_back(report);
  });
  forensics_.tail = recorder_.tail(DeadlockForensics::kTailPoints);
  detail::finalize_forensics(forensics_);
}

bool FlowSim::credit_conservation_holds() const {
  NBCLOS_REQUIRE(ledger_ != nullptr,
                 "credit audit requires credit backpressure mode");
  // Never-activated buffers hold full credits and nothing else, so the
  // identity closes for them trivially; the audit only walks live slots
  // (in-flight flits always target a live slot — consume pinned it).
  // Scratch is slot-indexed and hoisted into a member so epoch audits
  // do not allocate.
  audit_in_flight_.assign(pool_.peak_slots(), 0);
  for (const auto& w : busy_wires_) {
    if (w.target == kEject) continue;
    NBCLOS_ASSERT(pool_.slot_id(w.target) == w.target_slot);
    ++audit_in_flight_[w.target_slot];
  }
  bool holds = true;
  pool_.for_each_live([&](std::uint32_t b, std::uint32_t s,
                          const FlitBufferPool::BufferSlot& sl) {
    if (b >= switch_buffer_count_) return;  // NIC buffers are untracked
    const std::uint64_t sum = (config_.buffer_flits - sl.credits_used) +
                              sl.size + audit_in_flight_[s] +
                              sl.pending_returns;
    if (sum != config_.buffer_flits) holds = false;
  });
  return holds;
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
  if (ledger_ != nullptr) ledger_->advance(now_);
  lap(0);
  step_arrivals();
  lap(1);
  step_transmissions();
  lap(2);
  step_injection();
  lap(3);
  if (timed) ++phase_samples_;
}

FlowResult FlowSim::run() {
  obs::ScopedSpan span("flow.run", "flow");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  for (now_ = 0; now_ < total; ++now_) {
    measuring_ = now_ >= config_.warmup_cycles;
    if (degraded_.has_value()) apply_due_faults();
    // Sampled per-phase timing: every 64th cycle when obs is on.  The
    // clock reads never touch simulation state, so the timed and untimed
    // paths produce bit-identical results.
    bool timed = false;
    if constexpr (obs::kEnabled) {
      timed = (now_ & 63u) == 0 && obs::enabled();
    }
    step_phases(timed);
    if (onoff_ != nullptr) onoff_->latch();
    if (measuring_ && switch_channel_count_ > 0) {
      // Same arithmetic as PacketSim's sample: total flits across switch
      // buffers over the number of switch output channels.
      queue_depth_samples_.add(
          static_cast<double>(pool_.switch_flits_total()) /
          static_cast<double>(switch_channel_count_));
    }
    if (recorder_.want(now_)) sample_recorder();
    if (watchdog_tripped()) break;
  }

  FlowResult result;
  result.offered_load = config_.injection_rate;
  result.injected_packets = injected_;
  result.delivered_packets = delivered_packets_;
  result.dropped_packets = dropped_;
  result.accepted_throughput =
      static_cast<double>(delivered_measured_flits_) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(terminal_vertices_.size()));
  // Counter mode reports the exact integer mean (order-independent, so
  // it merges across shards); the legacy mode keeps its Welford stream.
  result.mean_latency =
      config_.counter_injection
          ? (latency_count_ > 0 ? static_cast<double>(latency_sum_) /
                                      static_cast<double>(latency_count_)
                                : 0.0)
          : latency_.mean();
  result.latency_bucket_width =
      static_cast<double>(latency_hist_.bucket_width());
  if (latency_hist_.count() > 0) {
    result.p50_latency = latency_hist_.quantile(0.50);
    result.p99_latency = latency_hist_.quantile(0.99);
    result.p999_latency = latency_hist_.quantile(0.999);
  }
  result.mean_switch_queue_depth = queue_depth_samples_.mean();
  bool first_flow = true;
  for (std::uint32_t t = 0; t < terminal_vertices_.size(); ++t) {
    if (flow_sequence_[t] == 0) continue;
    const double rate = static_cast<double>(delivered_per_source_[t]) /
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
  result.credit_stall_cycles = credit_stall_cycles_;
  result.vc_stall_cycles = vc_stall_cycles_;
  result.mean_stall_cycles =
      config_.counter_injection
          ? (stall_episode_count_ > 0
                 ? static_cast<double>(stall_duration_sum_) /
                       static_cast<double>(stall_episode_count_)
                 : 0.0)
          : stall_stats_.mean();
  result.p99_stall_cycles =
      stall_hist_.count() > 0 ? stall_hist_.quantile(0.99) : 0.0;
  result.peak_buffer_flits = pool_.peak_switch_flits();
  result.peak_live_packets = peak_live_packets_;
  result.deadlocked = deadlocked_;
  if (deadlocked_) {
    result.deadlock_cycle = now_;
    result.stuck_flits = flits_in_system_;
    fill_deadlock_diag(result);
    capture_forensics();
  }
  // End-of-run conservation audit: the wires and delay line still hold
  // whatever was in flight when the loop ended, so the identity must
  // close exactly here too.
  if (ledger_ != nullptr) NBCLOS_ASSERT(credit_conservation_holds());
  if constexpr (obs::kEnabled) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    flush_obs(wall.count());
    span.arg("cycles", static_cast<double>(now_));
    span.arg("delivered", static_cast<double>(delivered_packets_));
    span.arg("rate", config_.injection_rate);
  }
  return result;
}

void FlowSim::flush_obs(double wall_seconds) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("flow.runs").add(1);
  m.counter("flow.cycles").add(now_);
  m.counter("flow.packets.injected").add(injected_);
  m.counter("flow.packets.delivered").add(delivered_packets_);
  m.counter("flow.packets.dropped").add(dropped_);
  m.counter("flow.route.lookups").add(route_lookups_);
  m.counter("flow.stall.credit_cycles").add(credit_stall_cycles_);
  m.counter("flow.stall.vc_cycles").add(vc_stall_cycles_);
  if (deadlocked_) m.counter("flow.deadlocks").add(1);
  std::uint64_t busy_total = 0;
  for (const auto b : link_busy_flits_) busy_total += b;
  m.counter("flow.flits.transmitted").add(busy_total);
  m.gauge("flow.buffer.peak_flits")
      .set(static_cast<std::int64_t>(pool_.peak_switch_flits()));
  m.gauge("flow.buffer.pool_bytes")
      .set(static_cast<std::int64_t>(pool_.bytes()));
  for (std::uint32_t v = 0; v < config_.vcs; ++v) {
    m.gauge("flow.vc.peak_flits." + std::to_string(v))
        .set(static_cast<std::int64_t>(peak_per_vc_[v]));
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
  stats.flit_arena_bytes = pool_.bytes();
  stats.packet_arena_bytes = packets_.bytes();
  stats.resident_slots = pool_.resident_slots();
  stats.peak_slots = pool_.peak_slots();
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
