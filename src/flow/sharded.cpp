#include "nbclos/flow/sharded.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <string>
#include <thread>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/util/active_set.hpp"

namespace nbclos::flow {

namespace {
constexpr std::uint32_t kNone = UINT32_MAX;
constexpr std::uint32_t kEject = UINT32_MAX;  ///< wire target
constexpr std::uint32_t kNoSlot = FlitBufferPool::kNoSlot;
constexpr std::uint8_t kNoWinner = 0xFF;

/// Merge the ascending `run` (one sender's ascending sweep) into the
/// ascending `merged` through `scratch`, which keeps its capacity.
template <class T, class Less>
void merge_run(std::vector<T>& merged, const std::vector<T>& run,
               std::vector<T>& scratch, Less less) {
  NBCLOS_DEBUG_CHECK(std::is_sorted(run.begin(), run.end(), less),
                     "a proposal or grant run must arrive in order");
  scratch.clear();
  std::merge(merged.begin(), merged.end(), run.begin(), run.end(),
             std::back_inserter(scratch), less);
  merged.swap(scratch);
}
}  // namespace

/// All mutable per-shard state — one kernel arena per worker, allocated
/// on the worker's own thread (first touch) and never touched by another
/// until the merge after join.  Wires land in this shard's own buffers,
/// so the kernel's wire list is the executor role's output.
struct ShardedFlowSim::Shard : detail::FlitKernel<Shard> {
  Shard(const ShardedFlowSim& engine, std::uint32_t shard)
      : FlitKernel(engine.facts_, *engine.routes_, engine.config_),
        index(shard),
        buf_local(engine.buf_local_of_global_.data()),
        channel_local(engine.plan_.channel_local.data()),
        channel_owner(engine.plan_.channel_owner.data()),
        executor(engine.channel_executor_.data()),
        exec_index(engine.exec_index_.data()) {}

  // The kernel's id map: owned buffers and channels by local id (local
  // ids ascend with global id, so the active sets' ascending sweeps
  // visit serial's order), executed channels' link-busy tallies by the
  // executor-local index.
  std::uint32_t buffer(std::uint32_t b) const { return buf_local[b]; }
  std::uint32_t channel(std::uint32_t c) const {
    NBCLOS_DEBUG_CHECK(channel_owner[c] == index, "channel of another shard");
    return channel_local[c];
  }
  std::uint32_t global_buffer(std::uint32_t lb) const {
    return global_of_local[lb];
  }
  std::uint32_t busy(std::uint32_t c) const { return exec_index[c]; }
  /// An active owned channel sits in `active` when this shard also
  /// executes it (both ends here), else in `remote_active`.
  void activate(std::uint32_t c) {
    (executor[c] == index ? active : remote_active).insert(channel_local[c]);
  }
  void packet_entered(std::uint64_t now) { ++acq_by_cycle[now]; }
  void packet_left(std::uint64_t now) { ++rel_by_cycle[now]; }

  std::uint32_t index = 0;
  std::uint32_t local_switch_buffers = 0;
  std::uint32_t local_nic_buffers = 0;
  // The engine's read-only id tables (global id -> shard-local id).
  const std::uint32_t* buf_local;
  const std::uint32_t* channel_local;
  const std::uint8_t* channel_owner;
  const std::uint8_t* executor;
  const std::uint32_t* exec_index;
  std::vector<std::uint32_t> global_of_local;  ///< local buf -> global id
  ActiveSet remote_active;

  // Phase scratch: the mailbox runs merged into channel order.
  std::vector<FlitProposal> merged_props;
  std::vector<FlitProposal> merge_scratch_props;
  std::vector<TransmitGrant> merged_grants;
  std::vector<TransmitGrant> merge_scratch_grants;

  // Statistics beyond the kernel's, merged exactly after the run (see
  // merge_results for the replay arguments that make each merge
  // bit-identical to serial).
  std::vector<std::uint64_t> depth_sum_by_cycle;  ///< end-of-cycle total
  std::vector<std::uint32_t> acq_by_cycle;  ///< packets entering network
  std::vector<std::uint32_t> rel_by_cycle;  ///< tail ejections
  std::uint32_t executed_channels = 0;      ///< channels with executor == index
  std::uint64_t cross_flits = 0;
  std::uint64_t cross_credits = 0;
  std::uint64_t mailbox_peak = 0;
  // Sampled phase timers (every 64th cycle with obs on): owner_pre,
  // execute, owner_post compute, the two mailbox merges, and the two
  // epoch-barrier waits.
  std::array<std::uint64_t, 4> phase_ns{};
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t timed_cycles = 0;
  std::uint64_t cycles_run = 0;
  bool deadlocked = false;
  std::uint64_t deadlock_cycle = 0;
  std::uint64_t stuck_total = 0;
  std::vector<std::uint32_t> stuck_buffers;  ///< 8 smallest occupied, global
  std::uint32_t numa_node = 0;
};

ShardedFlowSim::ShardedFlowSim(
    std::shared_ptr<const routing::NextHop> routes,
    const sim::TrafficPattern& traffic, FlowConfig config,
    std::uint32_t shards, const fault::DegradedView* degraded,
    std::vector<fault::FaultEvent> fault_events)
    : routes_(std::move(routes)),
      net_(&routes_->network()),
      traffic_(&traffic),
      config_(config),
      fault_events_(std::move(fault_events)),
      degraded_(degraded) {
  config.validate();
  NBCLOS_REQUIRE(degraded == nullptr || &degraded->network() == net_,
                 "degraded view was built over a different network");
  NBCLOS_REQUIRE(fault_events_.empty() || degraded != nullptr,
                 "fault events need a degraded view to apply to");
  std::stable_sort(fault_events_.begin(), fault_events_.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  packet_rate_ =
      config.injection_rate / static_cast<double>(config.packet_flits);
  const auto terminal_vertices = net_->terminals();
  terminal_count_ = static_cast<std::uint32_t>(terminal_vertices.size());
  NBCLOS_REQUIRE(traffic.terminal_count() == terminal_count_,
                 "traffic pattern size does not match network");
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    NBCLOS_REQUIRE(terminal_vertices[t] == t,
                   "terminals must be vertices [0, T) (library builders "
                   "guarantee this)");
  }
  config_.counter_injection = true;  // the sharded engine's only mode

  plan_ = sim::ShardPlan::build(*net_, shards);
  const std::uint32_t shard_count = plan_.shard_count;
  const std::uint32_t channels = net_->channel_count();

  // Global buffer id assignment — serial FlowSim's, verbatim, so claims,
  // messages, and deadlock diagnostics are field-for-field comparable
  // with the serial engine.
  facts_ = std::make_shared<const detail::ChannelFacts>(*net_, config.vcs);
  const detail::ChannelFacts& facts = *facts_;
  channel_executor_.assign(channels, 0);
  exec_index_.assign(channels, 0);
  std::vector<std::uint32_t> exec_counts(shard_count, 0);
  for (std::uint32_t c = 0; c < channels; ++c) {
    channel_executor_[c] =
        static_cast<std::uint8_t>(plan_.shard_of_vertex(facts.dst[c]));
    exec_index_[c] = exec_counts[channel_executor_[c]]++;
  }

  // Local buffer numbering per shard: owned switch buffers first (`vcs`
  // consecutive per channel, channels ascending — the shard_channels
  // order), then owned NIC buffers.  Read-only after this loop.
  buf_local_of_global_.assign(facts.buffer_count(), 0);
  shards_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>(*this, s);
    // Injection is shard-local: the shard injecting at t owns t's NIC.
    for (std::uint32_t t = plan_.terminal_begin[s];
         t < plan_.terminal_begin[s + 1]; ++t) {
      NBCLOS_ASSERT(plan_.shard_of_vertex(t) == s);
    }
    std::uint32_t local_switch = 0;
    std::uint32_t local_nic = 0;
    for (const auto c : plan_.shard_channels[s]) {
      if (facts.is_nic[c]) continue;
      for (std::uint32_t v = 0; v < config_.vcs; ++v) {
        buf_local_of_global_[facts.buf_base[c] + v] = local_switch++;
      }
    }
    for (const auto c : plan_.shard_channels[s]) {
      if (!facts.is_nic[c]) continue;
      buf_local_of_global_[facts.buf_base[c]] = local_switch + local_nic++;
    }
    shard->local_switch_buffers = local_switch;
    shard->local_nic_buffers = local_nic;
    shard->executed_channels = exec_counts[s];
    shards_.push_back(std::move(shard));
  }

  proposal_box_ = sim::MailboxGrid<FlitProposal>(shard_count);
  grant_box_ = sim::MailboxGrid<TransmitGrant>(shard_count);
  epoch_stats_.assign(shard_count, EpochStat{});
  sync_ = std::make_unique<sim::ShardSync>(shard_count);
  numa_ = sim::NumaTopology::detect();
  if constexpr (obs::kEnabled) arm_recorder();
}

void ShardedFlowSim::arm_recorder() {
  if (!config_.record_timeseries) return;
  obs::FlightRecorder::Config rec;
  rec.cadence = config_.record_cadence;
  rec.ring_capacity = config_.record_ring_capacity;
  rec.shards = plan_.shard_count;
  recorder_.configure(rec);
  // Same names, cadence, and capacity as the serial FlowSim recorder, so
  // after the per-shard sum these kInvariant series are bit-identical to
  // a serial recording of the same run at any shard count.
  using obs::SeriesAgg;
  using obs::SeriesScope;
  rec_in_system_ = recorder_.series("flow.flits.in_system", SeriesAgg::kSum);
  rec_buffer_occupancy_ =
      recorder_.series("flow.buffer.occupancy", SeriesAgg::kSum);
  rec_credit_stalls_ =
      recorder_.series("flow.stall.credit_cycles", SeriesAgg::kSum);
  rec_vc_stalls_ = recorder_.series("flow.stall.vc_cycles", SeriesAgg::kSum);
  rec_blocked_heads_ = recorder_.series("flow.blocked.heads", SeriesAgg::kSum);
  rec_injected_ = recorder_.series("flow.packets.injected", SeriesAgg::kSum);
  rec_delivered_ = recorder_.series("flow.packets.delivered", SeriesAgg::kSum);
  // Mailbox pressure exists only under a shard cut (zero messages cross
  // at one shard), so these are excluded from the invariance contract.
  rec_mailbox_flits_ = recorder_.series(
      "flow.mailbox.cross_flits", SeriesAgg::kSum, SeriesScope::kShardTopology);
  rec_mailbox_credits_ =
      recorder_.series("flow.mailbox.cross_credits", SeriesAgg::kSum,
                       SeriesScope::kShardTopology);
  rec_mailbox_peak_ = recorder_.series(
      "flow.mailbox.peak", SeriesAgg::kMax, SeriesScope::kShardTopology);
}

void ShardedFlowSim::sample_recorder(Shard& sh, std::uint64_t now) {
  const std::uint32_t slot = sh.index;
  // Per-shard in-system counts partition additively but can be negative
  // (a shard that only ejects foreign packets), which is why SeriesPoint
  // values are signed.
  recorder_.record(rec_in_system_, slot, now, sh.flits_in_system);
  recorder_.record(rec_buffer_occupancy_, slot, now,
                   static_cast<std::int64_t>(sh.pool->switch_flits_total()));
  recorder_.record(rec_credit_stalls_, slot, now,
                   static_cast<std::int64_t>(sh.credit_stall_cycles));
  recorder_.record(rec_vc_stalls_, slot, now,
                   static_cast<std::int64_t>(sh.vc_stall_cycles));
  recorder_.record(rec_blocked_heads_, slot, now,
                   static_cast<std::int64_t>(sh.blocked_heads));
  recorder_.record(rec_injected_, slot, now,
                   static_cast<std::int64_t>(sh.injected));
  recorder_.record(rec_delivered_, slot, now,
                   static_cast<std::int64_t>(sh.delivered_packets));
  recorder_.record(rec_mailbox_flits_, slot, now,
                   static_cast<std::int64_t>(sh.cross_flits));
  recorder_.record(rec_mailbox_credits_, slot, now,
                   static_cast<std::int64_t>(sh.cross_credits));
  recorder_.record(rec_mailbox_peak_, slot, now,
                   static_cast<std::int64_t>(sh.mailbox_peak));
}

ShardedFlowSim::~ShardedFlowSim() = default;

void ShardedFlowSim::init_shard_arena(std::uint32_t s) {
  Shard& sh = *shards_[s];
  const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
  const auto count = static_cast<std::uint32_t>(plan_.shard_channels[s].size());
  sh.init_arena(sh.local_switch_buffers, sh.local_nic_buffers, count,
                sh.executed_channels, terminal_count_,
                plan_.terminal_begin[s], plan_.terminal_begin[s + 1],
                degraded_);
  sh.global_of_local.assign(sh.local_switch_buffers + sh.local_nic_buffers, 0);
  for (const auto c : plan_.shard_channels[s]) {
    for (std::uint32_t v = 0; v < facts_->vc_count(c); ++v) {
      const std::uint32_t b = facts_->buf_base[c] + v;
      sh.global_of_local[buf_local_of_global_[b]] = b;
    }
  }
  sh.remote_active = ActiveSet(count);
  sh.depth_sum_by_cycle.assign(total, 0);
  sh.acq_by_cycle.assign(total, 0);
  sh.rel_by_cycle.assign(total, 0);
}

void ShardedFlowSim::phase_owner_pre(Shard& sh, std::uint64_t now,
                                     bool measuring) {
  // Faults first: every shard advances its PRIVATE DegradedView copy
  // through the same sorted schedule, so the copies never diverge.
  sh.apply_due_faults(fault_events_, now);
  if (sh.ledger != nullptr) sh.ledger->advance(now);
  // Arrivals: land the wires this shard created in its executor role
  // last cycle.  Every target is a buffer (or terminal) this shard owns.
  sh.land(now, measuring);

  // Proposals: one per non-empty VC of each active, usable channel that
  // another shard executes, sent to that executor.  The ascending sweep
  // mirrors serial's transmission sweep (a drained channel leaves the
  // set; a dead one stays, transmitting nothing), so every proposal run
  // is ascending.  Shard-local channels wait for phase B.
  const auto& owned = plan_.shard_channels[sh.index];
  sh.remote_active.sweep([&](std::uint32_t li) {
    if (sh.channel_flits[li] == 0) return false;  // drained in phase C
    const std::uint32_t c = owned[li];
    if (!sh.usable(c)) return true;
    const auto start = static_cast<std::uint8_t>(sh.next_vc[li]);
    auto& box = proposal_box_.box(sh.index, channel_executor_[c]);
    for (std::uint32_t vc = 0; vc < facts_->vc_count(c); ++vc) {
      const std::uint32_t bs =
          sh.pool->slot_id(sh.buffer(facts_->buf_base[c] + vc));
      if (bs == kNoSlot || sh.pool->slot(bs).size == 0) continue;
      const FlitRef flit = sh.pool->front_at(bs);
      FlitProposal p;
      p.channel = c;
      p.flit_index = flit.flit_index;
      p.out_alloc = sh.pool->slot(bs).out_alloc;
      p.packet = sh.packets.at(flit.packet_slot);
      p.vc = static_cast<std::uint8_t>(vc);
      p.start_vc = start;
      box.push_back(p);
      ++sh.cross_flits;
    }
    return true;
  });
}

void ShardedFlowSim::merge_proposals(Shard& sh) {
  // Each box is one owner's ascending sweep, so a merge suffices.
  const auto proposal_less = [](const FlitProposal& a, const FlitProposal& b) {
    return a.channel != b.channel ? a.channel < b.channel : a.vc < b.vc;
  };
  sh.merged_props.clear();
  proposal_box_.drain_to(
      sh.index, [&](std::uint32_t /*src*/, std::vector<FlitProposal>& box) {
        sh.mailbox_peak = std::max<std::uint64_t>(sh.mailbox_peak, box.size());
        merge_run(sh.merged_props, box, sh.merge_scratch_props, proposal_less);
      });
}

ShardedFlowSim::TransmitGrant ShardedFlowSim::execute_proposals(
    Shard& sh, std::uint32_t c, std::uint32_t start_vc,
    const detail::FlitFront* fronts) {
  TransmitGrant g;
  g.channel = c;
  g.new_out_alloc = kNone;
  g.winner_vc = kNoWinner;
  const std::uint32_t vc_count = facts_->vc_count(c);
  std::uint32_t vc = start_vc;
  for (std::uint32_t k = 0; k < vc_count;
       ++k, vc = detail::next_vc(vc, vc_count)) {
    const detail::FlitFront& f = fronts[vc];
    if (f.packet == nullptr) continue;  // empty VC: serial skips it too
    detail::Hop hop;
    bool credit_block = false;
    if (!sh.downstream(c, vc, f, &hop, &credit_block)) {
      (credit_block ? g.credit_block_mask : g.vc_block_mask) |= 1u << vc;
      continue;  // this VC stalls; the next may still use the channel
    }
    // The winner rides its wire as a slot of this shard's PacketPool.
    // f.packet points into the mailbox copy, never into sh.packets, so
    // an acquire cannot move it.  A head gets a copy, which its claim
    // names downstream, so its body flits find it there; an ejecting
    // flit gets its own copy.
    const bool flit_copy = hop.target == kEject;
    const std::uint32_t packet_slot =
        f.flit_index > 0 && !flit_copy
            ? sh.pool->slot(hop.slot).claim
            : sh.packets.acquire(*f.packet);
    sh.send(c, hop, FlitRef{packet_slot, f.flit_index}, flit_copy);
    if (f.flit_index == 0) g.new_out_alloc = hop.target;
    g.winner_vc = static_cast<std::uint8_t>(vc);
    break;
  }
  return g;
}

void ShardedFlowSim::phase_execute(Shard& sh, std::uint64_t now) {
  // Execute every channel this shard decides in ascending channel order:
  // the proposals interleaved with this shard's own active local
  // channels.  Per-executor ascending order IS serial order for all
  // cross-channel interaction, because claims and credit consumption
  // only couple channels sharing a downstream vertex — which share this
  // executor.  A local channel runs the kernel's one-pass transmit in
  // place: nothing a pop changes (FIFO, out_alloc, pending returns,
  // dirty marks) is read by a later scan in this phase — credits return
  // at least one cycle later and on/off bits latch at the end of the
  // cycle.
  std::array<detail::FlitFront, FlowConfig::kMaxVcs> fronts{};
  std::size_t next = 0;
  const auto execute_proposals_below = [&](std::uint32_t limit) {
    const auto& props = sh.merged_props;
    while (next < props.size() && props[next].channel < limit) {
      const std::uint32_t c = props[next].channel;
      const std::uint32_t start = props[next].start_vc;
      std::fill_n(fronts.begin(), facts_->vc_count(c), detail::FlitFront{});
      for (; next < props.size() && props[next].channel == c; ++next) {
        const FlitProposal& p = props[next];
        fronts[p.vc] = detail::FlitFront{p.flit_index, p.out_alloc, &p.packet};
      }
      const TransmitGrant g = execute_proposals(sh, c, start, fronts.data());
      if (g.winner_vc != kNoWinner || g.credit_block_mask != 0 ||
          g.vc_block_mask != 0) {
        grant_box_.box(sh.index, plan_.channel_owner[c]).push_back(g);
      }
    }
  };
  const auto& owned = plan_.shard_channels[sh.index];
  sh.active.sweep([&](std::uint32_t li) {
    const std::uint32_t c = owned[li];
    execute_proposals_below(c);
    (void)sh.transmit(c, now);
    return sh.channel_flits[li] != 0;
  });
  execute_proposals_below(kNone);
}

void ShardedFlowSim::merge_grants(Shard& sh) {
  // One grant per channel; each executor emits its grants in its own
  // ascending proposal order, so every run is ascending.
  const auto grant_less = [](const TransmitGrant& a, const TransmitGrant& b) {
    return a.channel < b.channel;
  };
  sh.merged_grants.clear();
  grant_box_.drain_to(
      sh.index, [&](std::uint32_t /*src*/, std::vector<TransmitGrant>& box) {
        sh.mailbox_peak = std::max<std::uint64_t>(sh.mailbox_peak, box.size());
        merge_run(sh.merged_grants, box, sh.merge_scratch_grants, grant_less);
      });
}

void ShardedFlowSim::apply_grant(Shard& sh, const TransmitGrant& g,
                                 std::uint64_t now) {
  const std::uint32_t c = g.channel;
  const std::uint32_t vc_count = facts_->vc_count(c);
  // A VC the scan attempted holds a flit, so its buffer is bound.
  const auto slot_of = [&](std::uint32_t vc) {
    const std::uint32_t s =
        sh.pool->slot_id(sh.buffer(facts_->buf_base[c] + vc));
    NBCLOS_ASSERT(s != kNoSlot);
    return s;
  };
  // Replay the executor's scan outcome in scan order: stall bookkeeping
  // for the attempted-and-blocked VCs, then the winner's pop.
  std::uint32_t vc = sh.next_vc[sh.channel(c)];
  for (std::uint32_t k = 0; k < vc_count;
       ++k, vc = detail::next_vc(vc, vc_count)) {
    if (vc == g.winner_vc) break;  // masks only cover pre-winner VCs
    if (((g.credit_block_mask | g.vc_block_mask) >> vc) & 1u) {
      sh.note_blocked(slot_of(vc), ((g.credit_block_mask >> vc) & 1u) != 0,
                      now);
    }
  }
  if (g.winner_vc == kNoWinner) return;
  const FlitRef flit =
      sh.pop(c, g.winner_vc, slot_of(g.winner_vc), g.new_out_alloc, now);
  // The pop scheduled a credit return for a flit another shard moved.
  if (!facts_->is_nic[c]) ++sh.cross_credits;
  // Tail left this shard: the owner's copy dies with it (FIFO order plus
  // the no-interleave claim guarantee the tail pops last).
  if (flit.flit_index + 1 == config_.packet_flits) {
    sh.packets.release(flit.packet_slot);
  }
}

void ShardedFlowSim::phase_owner_post(Shard& sh, std::uint64_t now) {
  // Grants for the owned channels other shards executed, in ascending
  // channel order — serial's transmission sweep as seen by this owner's
  // buffers.
  for (const TransmitGrant& g : sh.merged_grants) apply_grant(sh, g, now);
  sh.inject_counter(*traffic_, packet_rate_, now);
  if (sh.onoff != nullptr) sh.onoff->latch();
  sh.depth_sum_by_cycle[now] = sh.pool->switch_flits_total();
  // End-of-cycle sample, the same point serial FlowSim samples at — all
  // shards see want(now) identically (same recorder geometry).
  if constexpr (obs::kEnabled) {
    if (recorder_.want(now)) sample_recorder(sh, now);
  }
}

bool ShardedFlowSim::epoch_watchdog(Shard& sh, std::uint64_t now) {
  if (config_.watchdog_epoch == 0) return false;
  if ((now + 1) % config_.watchdog_epoch != 0) return false;
  // Piggyback the credit-conservation audit on the epoch boundary, as
  // serial does — each shard closes its own identity locally.
  if (sh.ledger != nullptr) NBCLOS_ASSERT(sh.credit_conservation_holds());
  // The verdict needs GLOBAL totals: a shard whose owned flits all wait
  // on a neighbor (or that only ejects) sees a locally-stuck or even
  // negative picture.  One extra barrier publishes every shard's slot;
  // all shards then reduce the SAME numbers to the same verdict.
  epoch_stats_[sh.index] = EpochStat{sh.flits_in_system, sh.flits_moved_epoch};
  sync_->arrive_and_wait();
  std::int64_t in_system = 0;
  std::uint64_t moved = 0;
  for (const EpochStat& e : epoch_stats_) {
    in_system += e.flits_in_system;
    moved += e.flits_moved;
  }
  if (in_system > 0 && moved == 0) {
    sh.deadlocked = true;
    sh.deadlock_cycle = now;
    sh.stuck_total = static_cast<std::uint64_t>(in_system);
    // This shard's candidates for the global 8-smallest occupied buffer
    // sample.
    sh.stuck_buffers = sh.occupied_buffers(8);
    return true;
  }
  sh.flits_moved_epoch = 0;
  return false;
}

void ShardedFlowSim::run_shard(std::uint32_t s) {
  try {
    Shard& sh = *shards_[s];
    // First-touch: the arena is allocated here, on the worker's own
    // thread, so its pages land on the node the worker runs on.
    init_shard_arena(s);
    sh.numa_node = sim::current_numa_node(numa_);
    const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
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
      phase_owner_pre(sh, now, measuring);
      stamp(1);
      sync_->arrive_and_wait();
      stamp(2);
      merge_proposals(sh);
      stamp(3);
      phase_execute(sh, now);
      stamp(4);
      sync_->arrive_and_wait();
      stamp(5);
      merge_grants(sh);
      stamp(6);
      phase_owner_post(sh, now);
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
      sh.cycles_run = now + 1;
      if (epoch_watchdog(sh, now)) break;
    }
    // End-of-run conservation audit: wires and delay lines still hold
    // whatever was in flight when the loop ended (serial parity).
    if (sh.ledger != nullptr) NBCLOS_ASSERT(sh.credit_conservation_holds());
  } catch (...) {
    sync_->record_failure();
  }
}

FlowResult ShardedFlowSim::run() {
  NBCLOS_REQUIRE(!ran_, "ShardedFlowSim::run may only be called once");
  ran_ = true;
  obs::ScopedSpan span("flow.sharded.run", "flow");
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(plan_.shard_count);
  for (std::uint32_t s = 1; s < plan_.shard_count; ++s) {
    workers.emplace_back([this, s] { run_shard(s); });
  }
  run_shard(0);
  for (auto& worker : workers) worker.join();
  sync_->rethrow_if_failed();

  FlowResult result = merge_results();
  if (result.deadlocked) capture_forensics();
  if constexpr (obs::kEnabled) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    flush_obs(wall.count());
    span.arg("cycles", static_cast<double>(shards_[0]->cycles_run));
    span.arg("shards", static_cast<double>(plan_.shard_count));
    span.arg("rate", config_.injection_rate);
  }
  return result;
}

FlowResult ShardedFlowSim::merge_results() {
  FlowResult result;
  result.offered_load = config_.injection_rate;

  // Order-independent integer sums first.
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t stall_sum = 0;
  std::uint64_t stall_episodes = 0;
  std::uint64_t delivered_measured = 0;
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    result.injected_packets += sh.injected;
    result.delivered_packets += sh.delivered_packets;
    result.dropped_packets += sh.dropped;
    result.credit_stall_cycles += sh.credit_stall_cycles;
    result.vc_stall_cycles += sh.vc_stall_cycles;
    latency_sum += sh.latency_sum;
    latency_count += sh.latency_count;
    stall_sum += sh.stall_duration_sum;
    stall_episodes += sh.stall_episode_count;
    delivered_measured += sh.delivered_measured_flits;
  }
  result.accepted_throughput =
      static_cast<double>(delivered_measured) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(terminal_count_));
  result.mean_latency = latency_count > 0
                            ? static_cast<double>(latency_sum) /
                                  static_cast<double>(latency_count)
                            : 0.0;
  result.mean_stall_cycles = stall_episodes > 0
                                 ? static_cast<double>(stall_sum) /
                                       static_cast<double>(stall_episodes)
                                 : 0.0;

  // Histogram merges (identical geometry across shards by construction).
  QuantileHistogram latency_hist = shards_[0]->latency_hist;
  QuantileHistogram stall_hist = shards_[0]->stall_hist;
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    latency_hist.merge(shards_[s]->latency_hist);
    stall_hist.merge(shards_[s]->stall_hist);
  }
  result.latency_bucket_width =
      static_cast<double>(latency_hist.bucket_width());
  if (latency_hist.count() > 0) {
    result.p50_latency = latency_hist.quantile(0.50);
    result.p99_latency = latency_hist.quantile(0.99);
    result.p999_latency = latency_hist.quantile(0.999);
  }
  result.p99_stall_cycles =
      stall_hist.count() > 0 ? stall_hist.quantile(0.99) : 0.0;

  const std::uint64_t cycles_run = shards_[0]->cycles_run;

  // Mean switch queue depth: replay serial's per-cycle Welford stream —
  // each cycle's sample is the summed end-of-cycle occupancy over the
  // global switch channel count, added in cycle order.
  const std::uint64_t switch_channels = facts_->channel_of_switch.size();
  if (switch_channels > 0) {
    RunningStats depth;
    for (std::uint64_t cyc = config_.warmup_cycles; cyc < cycles_run; ++cyc) {
      std::uint64_t total_flits = 0;
      for (const auto& shp : shards_) {
        total_flits += shp->depth_sum_by_cycle[cyc];
      }
      depth.add(static_cast<double>(total_flits) /
                static_cast<double>(switch_channels));
    }
    result.mean_switch_queue_depth = depth.mean();
  }

  // Peak single-FIFO occupancy: each local pool tracks the high-water
  // mark over its own switch buffers, so the global peak is the max.
  for (const auto& shp : shards_) {
    result.peak_buffer_flits =
        std::max(result.peak_buffer_flits, shp->pool->peak_switch_flits());
  }

  // Peak live packets: replay serial's counter, which checks the peak
  // after each injection acquire.  Within a cycle releases (tail
  // ejections, during arrivals) precede acquires (injection), so the
  // running count peaks after the cycle's last acquire.
  std::int64_t live = 0;
  std::uint64_t peak_live = 0;
  for (std::uint64_t cyc = 0; cyc < cycles_run; ++cyc) {
    std::uint32_t acq = 0;
    std::uint32_t rel = 0;
    for (const auto& shp : shards_) {
      acq += shp->acq_by_cycle[cyc];
      rel += shp->rel_by_cycle[cyc];
    }
    live += static_cast<std::int64_t>(acq) - static_cast<std::int64_t>(rel);
    if (acq > 0 && static_cast<std::uint64_t>(live) > peak_live) {
      peak_live = static_cast<std::uint64_t>(live);
    }
  }
  result.peak_live_packets = peak_live;

  // Flow fairness: ascending terminals, same min/max fold as serial.
  bool first_flow = true;
  for (std::uint32_t t = 0; t < terminal_count_; ++t) {
    const Shard& owner = *shards_[plan_.shard_of_vertex(t)];
    if (owner.flow_sequence[t - owner.term_lo] == 0) continue;
    std::uint64_t delivered = 0;
    for (const auto& shp : shards_) delivered += shp->delivered_per_source[t];
    const double rate = static_cast<double>(delivered) /
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

  // Deadlock diagnostics (every shard reduced the same epoch totals, so
  // the flags agree; the stuck-buffer sample is the global 8 smallest).
  result.deadlocked = shards_[0]->deadlocked;
  if (result.deadlocked) {
    result.deadlock_cycle = shards_[0]->deadlock_cycle;
    result.stuck_flits = shards_[0]->stuck_total;
    std::vector<std::uint32_t> stuck;
    for (const auto& shp : shards_) {
      stuck.insert(stuck.end(), shp->stuck_buffers.begin(),
                   shp->stuck_buffers.end());
    }
    std::sort(stuck.begin(), stuck.end());
    if (stuck.size() > 8) stuck.resize(8);
    result.stuck_buffers = std::move(stuck);
  }

  // Exactly one shard (the executor) tallies each channel, so the merge
  // is a gather through the executor-local dense index, not a sum.
  merged_link_busy_.assign(net_->channel_count(), 0);
  for (std::uint32_t c = 0; c < net_->channel_count(); ++c) {
    merged_link_busy_[c] =
        shards_[channel_executor_[c]]->link_busy[exec_index_[c]];
  }
  telemetry_ = Telemetry{};
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    telemetry_.cross_shard_flits += sh.cross_flits;
    telemetry_.cross_shard_credits += sh.cross_credits;
    telemetry_.mailbox_peak = std::max(telemetry_.mailbox_peak, sh.mailbox_peak);
  }
  return result;
}

void ShardedFlowSim::capture_forensics() {
  forensics_.valid = true;
  forensics_.trip_cycle = shards_[0]->deadlock_cycle;
  forensics_.stuck_flits = shards_[0]->stuck_total;
  // Every blocked FIFO lives in exactly one shard's frozen arena; the
  // reports use serial FlowSim's global buffer ids, so the merged walk
  // (finalize_forensics sorts and follows cross-shard waiting_for edges)
  // names the same chain a serial run would.
  for (const auto& shp : shards_) shp->collect_blocked(forensics_.blocked);
  forensics_.tail = recorder_.tail(DeadlockForensics::kTailPoints);
  detail::finalize_forensics(forensics_);
}

std::size_t ShardedFlowSim::arena_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    if (sh.pool.has_value()) bytes += sh.pool->bytes();
    bytes += sh.packets.bytes();
    bytes += sh.channel_flits.capacity() * sizeof(std::uint32_t);
    bytes += sh.depth_sum_by_cycle.capacity() * sizeof(std::uint64_t);
    bytes += (sh.acq_by_cycle.capacity() + sh.rel_by_cycle.capacity()) *
             sizeof(std::uint32_t);
    bytes += sh.link_busy.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

ArenaStats ShardedFlowSim::arena_stats() const noexcept {
  ArenaStats stats;
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    if (sh.pool.has_value()) {
      stats.flit_arena_bytes += sh.pool->bytes();
      stats.resident_slots += sh.pool->resident_slots();
      stats.peak_slots += sh.pool->peak_slots();
    }
    stats.packet_arena_bytes += sh.packets.bytes();
  }
  return stats;
}

void ShardedFlowSim::flush_obs(double wall_seconds) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t lookups = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t vc_stalls = 0;
  std::uint64_t busy_total = 0;
  std::vector<std::uint32_t> peak_per_vc(config_.vcs, 0);
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    injected += sh.injected;
    delivered += sh.delivered_packets;
    dropped += sh.dropped;
    lookups += sh.route_lookups;
    credit_stalls += sh.credit_stall_cycles;
    vc_stalls += sh.vc_stall_cycles;
    for (const auto b : sh.link_busy) busy_total += b;
    for (std::uint32_t v = 0; v < config_.vcs; ++v) {
      peak_per_vc[v] = std::max(peak_per_vc[v], sh.peak_per_vc[v]);
    }
  }
  m.counter("flow.sharded.runs").add(1);
  m.counter("flow.cycles").add(shards_[0]->cycles_run);
  m.counter("flow.packets.injected").add(injected);
  m.counter("flow.packets.delivered").add(delivered);
  m.counter("flow.packets.dropped").add(dropped);
  m.counter("flow.route.lookups").add(lookups);
  m.counter("flow.stall.credit_cycles").add(credit_stalls);
  m.counter("flow.stall.vc_cycles").add(vc_stalls);
  m.counter("flow.flits.transmitted").add(busy_total);
  std::uint32_t peak_flits = 0;
  for (const auto& shp : shards_) {
    peak_flits = std::max(peak_flits, shp->pool->peak_switch_flits());
  }
  m.gauge("flow.buffer.peak_flits").set(static_cast<std::int64_t>(peak_flits));
  if (shards_[0]->deadlocked) m.counter("flow.deadlocks").add(1);
  m.counter("flow.sharded.cross_shard_flits").add(telemetry_.cross_shard_flits);
  m.counter("flow.sharded.cross_shard_credits")
      .add(telemetry_.cross_shard_credits);
  m.gauge("flow.sharded.shards")
      .set(static_cast<std::int64_t>(plan_.shard_count));
  m.gauge("flow.sharded.mailbox_peak")
      .set(static_cast<std::int64_t>(telemetry_.mailbox_peak));
  m.gauge("flow.buffer.pool_bytes")
      .set(static_cast<std::int64_t>(arena_bytes()));
  for (std::uint32_t v = 0; v < config_.vcs; ++v) {
    m.gauge("flow.vc.peak_flits." + std::to_string(v))
        .set(static_cast<std::int64_t>(peak_per_vc[v]));
  }
  // Sampled per-shard phase costs, ns per sampled cycle: one histogram
  // sample per shard, so the spread across samples is the load skew.
  const std::uint64_t cap = 1'000'000;  // 1 ms/cycle ceiling per phase
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    m.gauge("flow.sharded.shard." + std::to_string(sh.index) + ".numa_node")
        .set(static_cast<std::int64_t>(sh.numa_node));
    if (sh.timed_cycles == 0) continue;
    m.histogram("flow.sharded.barrier_wait_ns", cap)
        .record(sh.barrier_wait_ns / sh.timed_cycles);
    m.histogram("flow.phase.owner_pre_ns", cap)
        .record(sh.phase_ns[0] / sh.timed_cycles);
    m.histogram("flow.phase.execute_ns", cap)
        .record(sh.phase_ns[1] / sh.timed_cycles);
    m.histogram("flow.phase.owner_post_ns", cap)
        .record(sh.phase_ns[2] / sh.timed_cycles);
    m.histogram("flow.phase.mailbox_ns", cap)
        .record(sh.phase_ns[3] / sh.timed_cycles);
  }
  m.counter("flow.wall_us").add(static_cast<std::uint64_t>(wall_seconds * 1e6));
}

}  // namespace nbclos::flow
