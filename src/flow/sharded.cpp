#include "nbclos/flow/sharded.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <string>

#include "nbclos/flow/kernel.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/sim/shard_exchange.hpp"
#include "nbclos/util/active_set.hpp"
#include "nbclos/util/stats.hpp"

namespace nbclos::flow {

namespace {
using detail::Mail;

/// The phase timers (see sharded.hpp for what each covers): ns summed
/// over the timed cycles, one histogram sample per shard.  The last two
/// exist only under a cut.
enum Phase : std::size_t {
  kCreditReturns,
  kArrivals,
  kTransmissions,
  kInjection,
  kMailbox,
  kBarrierWait,
  kPhaseCount
};
constexpr std::array<const char*, kPhaseCount> kPhaseMetric = {
    "flow.phase.credit_returns_ns", "flow.phase.arrivals_ns",
    "flow.phase.transmissions_ns",  "flow.phase.injection_ns",
    "flow.phase.mailbox_ns",        "flow.sharded.barrier_wait_ns"};

/// The flight-recorder series every shard samples at the end of a
/// cycle.  The mailbox series come last: they exist only under a cut
/// (zero messages cross at one shard), so they are excluded from the
/// invariance contract.
struct SeriesSpec {
  const char* name;
  obs::SeriesAgg agg;
};
constexpr std::size_t kInvariantSeries = 7;
constexpr std::array<SeriesSpec, 10> kSeries = {{
    {"flow.flits.in_system", obs::SeriesAgg::kSum},
    {"flow.buffer.occupancy", obs::SeriesAgg::kSum},
    {"flow.stall.credit_cycles", obs::SeriesAgg::kSum},
    {"flow.stall.vc_cycles", obs::SeriesAgg::kSum},
    {"flow.blocked.heads", obs::SeriesAgg::kSum},
    {"flow.packets.injected", obs::SeriesAgg::kSum},
    {"flow.packets.delivered", obs::SeriesAgg::kSum},
    {"flow.mailbox.cross_flits", obs::SeriesAgg::kSum},
    {"flow.mailbox.cross_credits", obs::SeriesAgg::kSum},
    {"flow.mailbox.peak", obs::SeriesAgg::kMax}}};

/// The kernel's id map of a one-shard run: the arena holds both sides
/// of every buffer and indexes the whole fabric by global id.
struct WholeIds {
  static constexpr bool kCut = false;
  static constexpr std::uint32_t index = 0;
  static std::uint32_t read_side(std::uint32_t b) { return b; }
  static std::uint32_t write_side(std::uint32_t b) { return b; }
  static std::uint32_t channel(std::uint32_t c) { return c; }
  static std::uint32_t global_buffer(std::uint32_t lb) { return lb; }
  static std::uint32_t global_channel(std::uint32_t li) { return li; }
};

/// The kernel's id map of shard `index` of a cut.  It reads the channels
/// whose destination vertex it owns and writes those whose source vertex
/// it owns; a buffer of a channel with both ends here has one local id
/// for both sides.  Local channel ids ascend with global id, so the
/// active set's ascending sweep visits the one-shard order.  The
/// pointers are the driver's read-only tables.
struct CutIds {
  static constexpr bool kCut = true;
  std::uint32_t index = 0;
  const std::uint32_t* read_local = nullptr;   ///< buffer -> id at reader
  const std::uint32_t* write_local = nullptr;  ///< buffer -> id at writer
  const std::uint32_t* read_index = nullptr;  ///< c -> index at reader
  const std::uint8_t* reader_of = nullptr;  ///< c -> shard of dst(c)
  const std::uint8_t* writer_of = nullptr;  ///< c -> shard of src(c)
  const std::uint32_t* read_channels = nullptr;  ///< local channel -> c
  std::vector<std::uint32_t> global_of_local;  ///< local buf -> global id

  std::uint32_t read_side(std::uint32_t b) const { return read_local[b]; }
  std::uint32_t write_side(std::uint32_t b) const { return write_local[b]; }
  std::uint32_t reader(std::uint32_t c) const { return reader_of[c]; }
  std::uint32_t writer(std::uint32_t c) const { return writer_of[c]; }
  std::uint32_t channel(std::uint32_t c) const {
    NBCLOS_DEBUG_CHECK(reader_of[c] == index, "channel read elsewhere");
    return read_index[c];
  }
  std::uint32_t global_buffer(std::uint32_t lb) const {
    return global_of_local[lb];
  }
  std::uint32_t global_channel(std::uint32_t li) const {
    return read_channels[li];
  }
};

/// Cut mailboxes: one grid per cycle parity.  A box written in cycle n
/// is drained in cycle n + 1, after the one barrier of cycle n, and
/// written again in cycle n + 2, after the reader's barrier of n + 1.
using MailGrids = std::array<sim::MailboxGrid<Mail>, 2>;

/// All mutable per-shard state — one kernel arena per shard, never
/// written by another shard.  Under a cut it reads other shards' arenas
/// and boxes only in the credit audit, between barriers.
template <class Ids>
struct Shard : detail::FlitKernel<Shard<Ids>>, Ids {
  Shard(std::shared_ptr<const detail::ChannelFacts> channel_facts,
        const routing::NextHop& next_hop, const FlowConfig& flow_config,
        Ids ids)
      : detail::FlitKernel<Shard<Ids>>(std::move(channel_facts), next_hop,
                                       flow_config),
        Ids(std::move(ids)) {}

  /// Cut: queue `mail` for shard `to` in the box of cycle `now`.
  void post(std::uint32_t to, std::uint64_t now, const Mail& mail) {
    (*mailboxes)[now & 1].box(this->index, to).push_back(mail);
    if (mail.kind == Mail::kFlit) ++cross_flits;
    if (mail.kind == Mail::kCredit) ++cross_credits;
  }

  /// Cut: every mail posted to this shard and not yet received.  The
  /// boxes of the parity it drained this cycle are empty, so that is
  /// every box addressed to it.
  template <class Fn>
  void for_each_unreceived(Fn&& fn) const {
    for (auto& grid : *mailboxes) {
      for (std::uint32_t src = 0; src < grid.shard_count(); ++src) {
        for (const Mail& m : grid.box(src, this->index)) fn(m);
      }
    }
  }

  /// Cut: the pool slot of buffer b (of channel c) in the shard holding
  /// its other side, or nullptr while unbound.
  [[nodiscard]] const FlitBufferPool::BufferSlot* other_side(
      std::uint32_t b, std::uint32_t c) const {
    const bool reads = this->reader(c) == this->index;
    const Shard& peer = *(*peers)[reads ? this->writer(c) : this->reader(c)];
    const std::uint32_t s =
        peer.pool->slot_id(reads ? this->write_side(b) : this->read_side(b));
    return s == FlitBufferPool::kNoSlot ? nullptr : &peer.pool->slot(s);
  }

  // Arena geometry.
  std::uint32_t switch_buffers = 0;
  std::uint32_t nic_buffers = 0;
  std::uint32_t channels = 0;  ///< channels this arena reads

  // Cut only.
  MailGrids* mailboxes = nullptr;
  const std::vector<std::unique_ptr<Shard>>* peers = nullptr;

  // Statistics beyond the kernel's, merged exactly after the run (see
  // merge_results for the replay arguments that make each merge
  // bit-identical at any shard count).
  std::vector<std::uint64_t> depth_sum_by_cycle;  ///< end-of-cycle total
  std::uint64_t cross_flits = 0;
  std::uint64_t cross_credits = 0;
  std::uint64_t mailbox_peak = 0;
  std::array<std::uint64_t, kPhaseCount> phase_ns{};
  std::uint64_t timed_cycles = 0;
  std::uint64_t cycles_run = 0;
  bool deadlocked = false;
  std::uint64_t deadlock_cycle = 0;
  std::uint64_t stuck_total = 0;
  std::vector<std::uint32_t> stuck_buffers;  ///< 8 smallest occupied, global
  std::uint32_t numa_node = 0;
};
}  // namespace

namespace detail {

/// One run's state that does not depend on the id map: the validated
/// inputs, the shared channel facts, the recorder, and the results the
/// engine's accessors read.
class FlowDriver {
 public:
  FlowDriver(std::shared_ptr<const routing::NextHop> routes,
             const sim::TrafficPattern& traffic, FlowConfig config,
             const fault::DegradedView* degraded,
             std::vector<fault::FaultEvent> fault_events)
      : routes_(std::move(routes)),
        net_(&routes_->network()),
        traffic_(&traffic),
        config_(config),
        fault_events_(std::move(fault_events)),
        degraded_(degraded) {
    config_.validate();
    NBCLOS_REQUIRE(degraded == nullptr || &degraded->network() == net_,
                   "degraded view was built over a different network");
    NBCLOS_REQUIRE(fault_events_.empty() || degraded != nullptr,
                   "fault events need a degraded view to apply to");
    std::stable_sort(
        fault_events_.begin(), fault_events_.end(),
        [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
          return a.cycle < b.cycle;
        });
    injection_threshold_ = sim::injection_threshold(
        config_.injection_rate / static_cast<double>(config_.packet_flits));
    const auto terminal_vertices = net_->terminals();
    terminal_count_ = static_cast<std::uint32_t>(terminal_vertices.size());
    NBCLOS_REQUIRE(traffic.terminal_count() == terminal_count_,
                   "traffic pattern size does not match network");
    for (std::uint32_t t = 0; t < terminal_count_; ++t) {
      NBCLOS_REQUIRE(terminal_vertices[t] == t,
                     "terminals must be vertices [0, T) (library builders "
                     "guarantee this)");
    }
    // The global buffer id space every arena, message and diagnostic
    // speaks.
    facts_ = std::make_shared<const ChannelFacts>(*net_, config_.vcs);
  }
  virtual ~FlowDriver() = default;
  FlowDriver(const FlowDriver&) = delete;
  FlowDriver& operator=(const FlowDriver&) = delete;

  virtual FlowResult run() = 0;
  [[nodiscard]] virtual ArenaStats arena_stats() const = 0;
  [[nodiscard]] virtual std::size_t arena_bytes() const = 0;
  [[nodiscard]] virtual bool credit_conservation_holds() const = 0;
  [[nodiscard]] virtual const std::vector<std::uint64_t>& link_busy()
      const = 0;

  // What ShardedFlowSim's accessors read.
  std::uint32_t shard_count = 1;
  ShardedFlowSim::Telemetry telemetry;
  obs::FlightRecorder recorder;
  DeadlockForensics forensics;

 protected:
  /// Arm the recorder with one slot per shard and the kSeries a run of
  /// this shape samples.
  void arm_recorder(bool cut) {
    if (!config_.record_timeseries) return;
    obs::FlightRecorder::Config rec;
    rec.cadence = config_.record_cadence;
    rec.ring_capacity = config_.record_ring_capacity;
    rec.shards = shard_count;
    recorder.configure(rec);
    for (std::size_t i = 0; i < series_count(cut); ++i) {
      series_[i] = recorder.series(kSeries[i].name, kSeries[i].agg,
                                   i < kInvariantSeries
                                       ? obs::SeriesScope::kInvariant
                                       : obs::SeriesScope::kShardTopology);
    }
  }
  static constexpr std::size_t series_count(bool cut) {
    return cut ? kSeries.size() : kInvariantSeries;
  }

  std::shared_ptr<const routing::NextHop> routes_;
  const Network* net_;
  const sim::TrafficPattern* traffic_;
  FlowConfig config_;
  std::vector<fault::FaultEvent> fault_events_;  ///< sorted by cycle
  const fault::DegradedView* degraded_ = nullptr;  ///< copied per shard
  std::uint32_t terminal_count_ = 0;
  std::uint64_t injection_threshold_ = 0;  ///< of the per-cycle packet rate
  std::shared_ptr<const ChannelFacts> facts_;
  std::array<obs::FlightRecorder::SeriesId, kSeries.size()> series_{};
  bool ran_ = false;
};

}  // namespace detail

namespace {

/// The one flow-engine driver, over the id map `Ids`: WholeIds at one
/// shard, CutIds under a cut.  Everything a cut alone needs — the
/// ShardPlan and id tables, mailboxes, the barrier, worker threads — is
/// built and run only when Ids::kCut.
template <class Ids>
class Driver final : public detail::FlowDriver {
 public:
  static constexpr bool kCut = Ids::kCut;
  using ShardT = Shard<Ids>;

  Driver(std::shared_ptr<const routing::NextHop> routes,
         const sim::TrafficPattern& traffic,
         const FlowConfig& config, std::uint32_t shards,
         const fault::DegradedView* degraded,
         std::vector<fault::FaultEvent> fault_events)
      : FlowDriver(std::move(routes), traffic, config, degraded,
                   std::move(fault_events)) {
    const detail::ChannelFacts& facts = *facts_;
    const std::uint32_t channels = net_->channel_count();
    if constexpr (!kCut) {
      // One arena over the whole fabric, built now so it can be probed
      // before run().
      auto& sh = *shards_.emplace_back(
          std::make_unique<ShardT>(facts_, *routes_, config_, Ids{}));
      sh.switch_buffers = facts.switch_buffers;
      sh.nic_buffers = static_cast<std::uint32_t>(facts.channel_of_nic.size());
      sh.channels = channels;
      init_arena(sh);
    } else {
      plan_ = sim::ShardPlan::build(*net_, shards);
      shard_count = plan_.shard_count;
      reader_of_.assign(channels, 0);
      read_index_.assign(channels, 0);
      read_channels_.assign(shard_count, {});
      for (std::uint32_t c = 0; c < channels; ++c) {
        const auto r = plan_.shard_of_vertex(facts.dst[c]);
        reader_of_[c] = static_cast<std::uint8_t>(r);
        read_index_[c] = static_cast<std::uint32_t>(read_channels_[r].size());
        read_channels_[r].push_back(c);
      }
      // Local buffer ids per shard: the switch buffers it reads (written
      // here too when the channel's source is here), then those it only
      // writes, then the NIC queues it reads.  Read-only after this loop.
      // A side's local id is its index in the shard's global_of_local.
      read_local_.assign(facts.buffer_count(), 0);
      write_local_.assign(facts.buffer_count(), 0);
      shards_.reserve(shard_count);
      for (std::uint32_t s = 0; s < shard_count; ++s) {
        auto& sh = *shards_.emplace_back(std::make_unique<ShardT>(
            facts_, *routes_, config_,
            CutIds{.index = s,
                   .read_local = read_local_.data(),
                   .write_local = write_local_.data(),
                   .read_index = read_index_.data(),
                   .reader_of = reader_of_.data(),
                   .writer_of = plan_.channel_owner.data(),
                   .read_channels = read_channels_[s].data(),
                   .global_of_local = {}}));
        auto& ids = sh.global_of_local;
        const auto add = [&](std::uint32_t b, bool reads, bool writes) {
          const auto lb = static_cast<std::uint32_t>(ids.size());
          if (reads) read_local_[b] = lb;
          if (writes) write_local_[b] = lb;
          ids.push_back(b);
        };
        for (const auto c : read_channels_[s]) {
          if (facts.is_nic[c]) continue;
          for (std::uint32_t v = 0; v < config_.vcs; ++v) {
            add(facts.buf_base[c] + v, true, plan_.channel_owner[c] == s);
          }
        }
        for (const auto c : plan_.shard_channels[s]) {
          if (facts.is_nic[c] || reader_of_[c] == s) continue;
          for (std::uint32_t v = 0; v < config_.vcs; ++v) {
            add(facts.buf_base[c] + v, false, true);
          }
        }
        sh.switch_buffers = static_cast<std::uint32_t>(ids.size());
        for (const auto c : read_channels_[s]) {
          if (facts.is_nic[c]) add(facts.buf_base[c], true, false);
        }
        sh.nic_buffers =
            static_cast<std::uint32_t>(ids.size()) - sh.switch_buffers;
        sh.channels = static_cast<std::uint32_t>(read_channels_[s].size());
        sh.mailboxes = &mail_;
        sh.peers = &shards_;
      }
      mail_ = {sim::MailboxGrid<Mail>(shard_count),
               sim::MailboxGrid<Mail>(shard_count)};
      epoch_stats_.assign(shard_count, EpochStat{});
      sync_ = std::make_unique<sim::ShardSync>(shard_count);
      numa_ = sim::NumaTopology::detect();
    }
    if constexpr (obs::kEnabled) arm_recorder(kCut);
  }

  FlowResult run() override {
    NBCLOS_REQUIRE(!ran_, "ShardedFlowSim::run may only be called once");
    ran_ = true;
    obs::ScopedSpan span(kCut ? "flow.sharded.run" : "flow.run", "flow");
    const auto wall_start = std::chrono::steady_clock::now();
    if constexpr (kCut) {
      // Each worker builds its arena on its own thread (first touch, so
      // the pages land on the node the worker runs on).
      sync_->run(shard_count, [this](std::uint32_t s) {
        ShardT& sh = *shards_[s];
        init_arena(sh);
        sh.numa_node = sim::current_numa_node(numa_);
        run_cycles(sh);
      });
      telemetry.barrier_phases = sync_->phases_completed();
    } else {
      run_cycles(*shards_[0]);
    }
    // End-of-run conservation audit: the wires, the mail and the delay
    // lines still hold whatever was in flight when the loop ended, so the
    // identity must close exactly here too.
    if (config_.backpressure == Backpressure::kCredit) {
      NBCLOS_ASSERT(credit_conservation_holds());
    }

    FlowResult result = merge_results();
    if (result.deadlocked) capture_forensics();
    if constexpr (obs::kEnabled) {
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - wall_start;
      flush_obs(result, wall.count());
      span.arg("cycles", static_cast<double>(shards_[0]->cycles_run));
      span.arg("shards", static_cast<double>(shard_count));
      span.arg("rate", config_.injection_rate);
    }
    return result;
  }

  [[nodiscard]] ArenaStats arena_stats() const override {
    ArenaStats stats;
    for (const auto& shp : shards_) {
      const ShardT& sh = *shp;
      if (sh.pool.has_value()) {
        stats.flit_arena_bytes += sh.pool->bytes();
        stats.resident_slots += sh.pool->resident_slots();
        stats.peak_slots += sh.pool->peak_slots();
      }
      stats.packet_arena_bytes += sh.packets.bytes();
    }
    return stats;
  }

  [[nodiscard]] std::size_t arena_bytes() const override {
    const ArenaStats stats = arena_stats();
    std::size_t bytes = stats.flit_arena_bytes + stats.packet_arena_bytes;
    for (const auto& shp : shards_) {
      const ShardT& sh = *shp;
      bytes += sh.channel_flits.capacity() * sizeof(std::uint32_t);
      bytes += sh.depth_sum_by_cycle.capacity() * sizeof(std::uint64_t);
      bytes += (sh.acq_by_cycle.capacity() + sh.rel_by_cycle.capacity()) *
               sizeof(std::uint32_t);
      bytes += sh.link_busy.capacity() * sizeof(std::uint64_t);
    }
    return bytes;
  }

  /// One shard's own tallies are indexed by global channel id already.
  [[nodiscard]] const std::vector<std::uint64_t>& link_busy() const override {
    return kCut ? merged_link_busy_ : shards_[0]->link_busy;
  }

  [[nodiscard]] bool credit_conservation_holds() const override {
    NBCLOS_REQUIRE(shards_[0]->pool.has_value(),
                   "a sharded engine builds its arenas in run()");
    return std::all_of(shards_.begin(), shards_.end(), [](const auto& shp) {
      return shp->credit_conservation_holds();
    });
  }

 private:
  void init_arena(ShardT& sh) {
    std::uint32_t lo = 0;
    std::uint32_t hi = terminal_count_;
    if constexpr (kCut) {
      lo = plan_.terminal_begin[sh.index];
      hi = plan_.terminal_begin[sh.index + 1];
    }
    sh.init_arena(sh.switch_buffers, sh.nic_buffers, sh.channels,
                  terminal_count_, lo, hi, degraded_);
    sh.wires.reserve(sh.channels);
    sh.depth_sum_by_cycle.assign(sh.acq_by_cycle.size(), 0);
  }

  void run_cycles(ShardT& sh) {
    const std::uint64_t total = config_.warmup_cycles + config_.measure_cycles;
    for (std::uint64_t now = 0; now < total; ++now) {
      if constexpr (kCut) {
        if (sync_->poisoned()) {
          sync_->arrive_and_drop();
          return;
        }
      }
      const bool measuring = now >= config_.warmup_cycles;
      // Phase timing on every cycle when obs is on, except cycle 0, whose
      // barrier also waits out the other workers' start-up and arena
      // set-up.  The clock reads never touch simulation state, so the
      // timed and untimed paths produce bit-identical results.
      bool timed = false;
      if constexpr (obs::kEnabled) timed = now > 0 && obs::enabled();
      using clock = std::chrono::steady_clock;
      auto last = timed ? clock::now() : clock::time_point{};
      const auto lap = [&](Phase phase) {
        if (!timed) return;
        const auto t = clock::now();
        sh.phase_ns[phase] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - last)
                .count());
        last = t;
      };
      if constexpr (kCut) {
        // Last cycle's mail, before the ledger advances: a credit mailed
        // then may come due now.
        mail_[(now - 1) & 1].drain_to(
            sh.index, [&](std::uint32_t /*src*/, std::vector<Mail>& box) {
              sh.mailbox_peak =
                  std::max<std::uint64_t>(sh.mailbox_peak, box.size());
              for (const Mail& m : box) sh.receive(m, now);
            });
        lap(kMailbox);
      }
      // Every shard advances its PRIVATE DegradedView copy through the
      // same sorted schedule, so the copies never diverge.
      sh.apply_due_faults(fault_events_, now);
      if (sh.ledger != nullptr) sh.ledger->advance(now);
      lap(kCreditReturns);
      sh.land(now, measuring);
      lap(kArrivals);
      // Every channel this shard reads, in ascending channel order.  All
      // interaction between channels within a cycle — claims and credit
      // consumption — couples only channels into one vertex, which one
      // shard reads; the ascending sweep is the one-shard order for them.
      sh.active.sweep([&](std::uint32_t li) {
        (void)sh.transmit(sh.global_channel(li), now);
        return sh.channel_flits[li] != 0;
      });
      lap(kTransmissions);
      sh.inject_counter(*traffic_, injection_threshold_, now);
      if (sh.onoff != nullptr) sh.latch(now);
      sh.depth_sum_by_cycle[now] = sh.pool->switch_flits_total();
      // End-of-cycle sample — all shards see want(now) identically (same
      // recorder geometry).
      if constexpr (obs::kEnabled) {
        if (recorder.want(now)) sample_recorder(sh, now);
      }
      lap(kInjection);
      if constexpr (kCut) {
        // The one exchange: this cycle's mail becomes readable.
        sync_->arrive_and_wait();
        lap(kBarrierWait);
      }
      if (timed) ++sh.timed_cycles;
      sh.cycles_run = now + 1;
      if (epoch_watchdog(sh, now)) break;
    }
  }

  void sample_recorder(ShardT& sh, std::uint64_t now) {
    // Per-shard in-system counts partition additively but can be negative
    // (a shard that only ejects foreign packets), which is why SeriesPoint
    // values are signed.  In kSeries order.
    const std::array<std::uint64_t, kSeries.size()> values = {
        static_cast<std::uint64_t>(sh.flits_in_system),
        sh.pool->switch_flits_total(), sh.credit_stall_cycles,
        sh.vc_stall_cycles, sh.blocked_heads, sh.injected,
        sh.delivered_packets, sh.cross_flits, sh.cross_credits,
        sh.mailbox_peak};
    for (std::size_t i = 0; i < series_count(kCut); ++i) {
      recorder.record(series_[i], sh.index, now,
                      static_cast<std::int64_t>(values[i]));
    }
  }

  [[nodiscard]] bool epoch_watchdog(ShardT& sh, std::uint64_t now) {
    if (config_.watchdog_epoch == 0) return false;
    if ((now + 1) % config_.watchdog_epoch != 0) return false;
    // Piggyback the credit-conservation audit on the epoch boundary: O(B)
    // every epoch cycles is invisible, and a ledger bug surfaces here long
    // before it corrupts results.  Each shard closes the identity of the
    // buffers it writes.  Under a cut that reads the far side of a cut
    // buffer and this cycle's unreceived mail, which no shard changes
    // between the cycle's barrier and the epoch barrier below.
    if (sh.ledger != nullptr) NBCLOS_ASSERT(sh.credit_conservation_holds());
    std::int64_t in_system = sh.flits_in_system;
    std::uint64_t moved = sh.flits_moved_epoch;
    if constexpr (kCut) {
      // The verdict needs GLOBAL totals: a shard whose owned flits all wait
      // on a neighbor (or that only ejects) sees a locally-stuck or even
      // negative picture.  The epoch barrier publishes every shard's slot;
      // all shards then reduce the SAME numbers to the same verdict.
      epoch_stats_[sh.index] = EpochStat{in_system, moved};
      sync_->arrive_and_wait();
      in_system = 0;
      moved = 0;
      for (const EpochStat& e : epoch_stats_) {
        in_system += e.flits_in_system;
        moved += e.flits_moved;
      }
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

  [[nodiscard]] FlowResult merge_results() {
    FlowResult result;
    result.offered_load = config_.injection_rate;

    // Order-independent integer sums first.
    std::uint64_t latency_sum = 0;
    std::uint64_t latency_count = 0;
    std::uint64_t stall_sum = 0;
    std::uint64_t stall_episodes = 0;
    std::uint64_t delivered_measured = 0;
    for (const auto& shp : shards_) {
      const ShardT& sh = *shp;
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
    result.mean_stall_cycles =
        stall_episodes > 0 ? static_cast<double>(stall_sum) /
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

    // Mean switch queue depth: a Welford stream over the measured cycles,
    // each sample the summed end-of-cycle occupancy over the global switch
    // channel count (PacketSim's arithmetic), added in cycle order.
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

    // Peak live packets, checked after each injection acquire.  Within a
    // cycle releases (tail ejections, during arrivals) precede acquires
    // (injection), so the running count peaks after the cycle's last
    // acquire.
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

    // Flow fairness: flow_sequence lives with the injecting shard;
    // deliveries are summed across all shards.
    set_flow_extremes(
        result, terminal_count_, config_.measure_cycles,
        [&](std::uint32_t t) {
          const ShardT& owner = *shards_[kCut ? plan_.shard_of_vertex(t) : 0];
          return owner.flow_sequence[t - owner.term_lo] != 0;
        },
        [&](std::uint32_t t) {
          std::uint64_t delivered = 0;
          for (const auto& shp : shards_) {
            delivered += shp->delivered_per_source[t];
          }
          return delivered;
        });

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

    if constexpr (kCut) {
      // Exactly one shard (the reader) tallies each channel, so the merge
      // is a gather through the reader-local dense index, not a sum.
      merged_link_busy_.assign(net_->channel_count(), 0);
      for (std::uint32_t c = 0; c < net_->channel_count(); ++c) {
        merged_link_busy_[c] =
            shards_[reader_of_[c]]->link_busy[read_index_[c]];
      }
      for (const auto& shp : shards_) {
        const ShardT& sh = *shp;
        telemetry.cross_shard_flits += sh.cross_flits;
        telemetry.cross_shard_credits += sh.cross_credits;
        telemetry.mailbox_peak =
            std::max(telemetry.mailbox_peak, sh.mailbox_peak);
      }
    }
    return result;
  }

  /// Merge every shard's frozen blocked-FIFO picture (after the workers
  /// have joined) into one global forensics report.
  void capture_forensics() {
    forensics.valid = true;
    forensics.trip_cycle = shards_[0]->deadlock_cycle;
    forensics.stuck_flits = shards_[0]->stuck_total;
    // Every blocked FIFO lives in exactly one shard's frozen arena; the
    // reports use global buffer ids, so the merged walk (finalize_forensics
    // sorts and follows cross-shard waiting_for edges) names the same
    // chain at any shard count.
    for (const auto& shp : shards_) shp->collect_blocked(forensics.blocked);
    forensics.tail = recorder.tail(DeadlockForensics::kTailPoints);
    detail::finalize_forensics(forensics);
  }

  /// Flush the run's counters; `result` already holds the merged sums.
  void flush_obs(const FlowResult& result, double wall_seconds) {
    if (!obs::enabled()) return;
    auto& m = obs::metrics();
    std::uint64_t lookups = 0;
    std::vector<std::uint32_t> peak_per_vc(config_.vcs, 0);
    for (const auto& shp : shards_) {
      lookups += shp->route_lookups;
      for (std::uint32_t v = 0; v < config_.vcs; ++v) {
        peak_per_vc[v] = std::max(peak_per_vc[v], shp->peak_per_vc[v]);
      }
    }
    m.counter("flow.runs").add(1);
    m.counter("flow.cycles").add(shards_[0]->cycles_run);
    m.counter("flow.packets.injected").add(result.injected_packets);
    m.counter("flow.packets.delivered").add(result.delivered_packets);
    m.counter("flow.packets.dropped").add(result.dropped_packets);
    m.counter("flow.route.lookups").add(lookups);
    m.counter("flow.stall.credit_cycles").add(result.credit_stall_cycles);
    m.counter("flow.stall.vc_cycles").add(result.vc_stall_cycles);
    auto& stalls = detail::stall_metric();
    for (const auto& shp : shards_) stalls.merge(shp->stall_obs);
    m.counter("flow.flits.transmitted")
        .add(std::accumulate(link_busy().begin(), link_busy().end(),
                             std::uint64_t{0}));
    if (result.deadlocked) m.counter("flow.deadlocks").add(1);
    m.gauge("flow.buffer.peak_flits")
        .set(static_cast<std::int64_t>(result.peak_buffer_flits));
    m.gauge("flow.buffer.pool_bytes")
        .set(static_cast<std::int64_t>(arena_stats().flit_arena_bytes));
    for (std::uint32_t v = 0; v < config_.vcs; ++v) {
      m.gauge("flow.vc.peak_flits." + std::to_string(v))
          .set(static_cast<std::int64_t>(peak_per_vc[v]));
    }
    if constexpr (kCut) {
      m.counter("flow.sharded.runs").add(1);
      m.counter("flow.sharded.cross_shard_flits")
          .add(telemetry.cross_shard_flits);
      m.counter("flow.sharded.cross_shard_credits")
          .add(telemetry.cross_shard_credits);
      m.gauge("flow.sharded.shards")
          .set(static_cast<std::int64_t>(shard_count));
      m.gauge("flow.sharded.mailbox_peak")
          .set(static_cast<std::int64_t>(telemetry.mailbox_peak));
    }
    // Per-shard phase costs, ns per timed cycle: one histogram sample per
    // shard, so the spread across samples is the load skew.
    // The histograms clamp at their cap; the exact ns, summed over shards
    // and timed cycles, go to a "<phase>_total" counter beside each, with
    // the timed shard-cycles in flow.phase.timed_cycles.
    const std::uint64_t cap = 1'000'000;  // 1 ms/cycle ceiling per phase
    const std::size_t phases = kCut ? kPhaseCount : kMailbox;
    std::uint64_t timed_cycles = 0;
    for (const auto& shp : shards_) {
      const ShardT& sh = *shp;
      if constexpr (kCut) {
        m.gauge("flow.sharded.shard." + std::to_string(sh.index) + ".numa_node")
            .set(static_cast<std::int64_t>(sh.numa_node));
      }
      timed_cycles += sh.timed_cycles;
      for (std::size_t p = 0; p < phases; ++p) {
        m.counter(std::string(kPhaseMetric[p]) + "_total").add(sh.phase_ns[p]);
        if (sh.timed_cycles == 0) continue;
        m.histogram(kPhaseMetric[p], cap)
            .record(sh.phase_ns[p] / sh.timed_cycles);
      }
    }
    m.counter("flow.phase.timed_cycles").add(timed_cycles);
    m.counter("flow.wall_us")
        .add(static_cast<std::uint64_t>(wall_seconds * 1e6));
  }

  std::vector<std::unique_ptr<ShardT>> shards_;

  // Cut only.
  sim::ShardPlan plan_;
  std::vector<std::uint8_t> reader_of_;  ///< shard_of(dst(c))
  /// Dense index of c among its reader's channels (ascending c): the
  /// per-shard channel arrays and link-busy tallies track channels / S,
  /// not S full copies of the fabric.
  std::vector<std::uint32_t> read_index_;
  std::vector<std::vector<std::uint32_t>> read_channels_;  ///< per shard
  std::vector<std::uint32_t> read_local_;   ///< buffer -> reader-local id
  std::vector<std::uint32_t> write_local_;  ///< buffer -> writer-local id
  std::vector<std::uint64_t> merged_link_busy_;  ///< gathered after join
  MailGrids mail_;
  /// Watchdog epoch aggregation slots: shard s writes its local
  /// {flits in system, flits moved} here, one extra barrier makes them
  /// visible, and every shard reduces the SAME totals — the aggregated
  /// verdict a per-shard scan would get wrong for deadlock cycles that
  /// span the cut.  (Per-shard in-system counts can be negative: a
  /// shard that ejects packets injected elsewhere only ever decrements.)
  struct EpochStat {
    std::int64_t flits_in_system = 0;
    std::uint64_t flits_moved = 0;
  };
  std::vector<EpochStat> epoch_stats_;
  std::unique_ptr<sim::ShardSync> sync_;
  sim::NumaTopology numa_;
};

}  // namespace

ShardedFlowSim::ShardedFlowSim(std::shared_ptr<const routing::NextHop> routes,
                               const sim::TrafficPattern& traffic,
                               FlowConfig config, std::uint32_t shards,
                               const fault::DegradedView* degraded,
                               std::vector<fault::FaultEvent> fault_events) {
  if (shards > 1) {
    driver_ = std::make_unique<Driver<CutIds>>(std::move(routes), traffic,
                                               config, shards, degraded,
                                               std::move(fault_events));
  } else {
    driver_ = std::make_unique<Driver<WholeIds>>(std::move(routes), traffic,
                                                 config, 1, degraded,
                                                 std::move(fault_events));
  }
}

ShardedFlowSim::~ShardedFlowSim() = default;

FlowResult ShardedFlowSim::run() { return driver_->run(); }

const std::vector<std::uint64_t>& ShardedFlowSim::link_busy_flits() const {
  return driver_->link_busy();
}

std::uint32_t ShardedFlowSim::shard_count() const noexcept {
  return driver_->shard_count;
}

const ShardedFlowSim::Telemetry& ShardedFlowSim::telemetry() const noexcept {
  return driver_->telemetry;
}

std::size_t ShardedFlowSim::arena_bytes() const noexcept {
  return driver_->arena_bytes();
}

ArenaStats ShardedFlowSim::arena_stats() const noexcept {
  return driver_->arena_stats();
}

bool ShardedFlowSim::credit_conservation_holds() const {
  return driver_->credit_conservation_holds();
}

const obs::FlightRecorder& ShardedFlowSim::recorder() const {
  return driver_->recorder;
}

const DeadlockForensics& ShardedFlowSim::forensics() const {
  return driver_->forensics;
}

}  // namespace nbclos::flow
