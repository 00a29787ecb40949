#include "nbclos/sim/sharded.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <string>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/sim/kernel.hpp"
#include "nbclos/util/prng.hpp"
#include "nbclos/util/stats.hpp"

namespace nbclos::sim {

namespace {

/// Cut only: one admission candidate, proposer -> owner of its target.
struct Proposal {
  std::uint32_t target = 0;  ///< proposed next channel (global id)
  std::uint32_t from = 0;    ///< proposing channel (global id)
  Packet packet;
};

/// Cut only, owner -> proposer: the candidate's admission outcome.
struct Ack {
  std::uint32_t from = 0;  ///< proposing channel (global id)
  bool accepted = false;
};

/// The phase timers (see sharded.hpp for what each covers): ns
/// summed over the timed cycles, one histogram sample per shard.  The
/// last two exist only under a cut.
enum Phase : std::size_t {
  kArrivals, kTransmissions, kInjection, kMailbox, kBarrierWait, kPhaseCount
};
constexpr std::array<const char*, kPhaseCount> kPhaseMetric = {
    "sim.phase.arrivals_ns", "sim.phase.transmissions_ns",
    "sim.phase.injection_ns", "sim.phase.mailbox_ns",
    "sim.sharded.barrier_wait_ns"};

/// The kernel's id map of a one-shard run: the arena holds the whole
/// fabric, indexed by global id.
struct WholeIds {
  static constexpr bool kCut = false;
  static constexpr std::uint32_t index = 0;
  static std::uint32_t channel(std::uint32_t c) { return c; }
  static std::uint32_t global(std::uint32_t li) { return li; }
};

/// The kernel's id map of shard `index` of a cut: owned channels by local
/// id (local ids ascend with global id, so the active sets' ascending
/// sweeps visit the one-shard order).  The pointers are the driver's
/// read-only ShardPlan tables.
struct CutIds {
  static constexpr bool kCut = true;
  std::uint32_t index = 0;
  const std::uint32_t* channel_local = nullptr;
  const std::uint8_t* channel_owner = nullptr;
  const std::uint32_t* owned = nullptr;  ///< local id -> global channel id

  std::uint32_t channel(std::uint32_t c) const {
    NBCLOS_DEBUG_CHECK(channel_owner[c] == index, "channel of another shard");
    return channel_local[c];
  }
  std::uint32_t global(std::uint32_t li) const { return owned[li]; }
};

/// All mutable per-shard state — one kernel arena per shard, never
/// touched by another shard until the merge after join.
template <class Ids>
struct Shard : detail::PacketKernel<Shard<Ids>>, Ids {
  Shard(const Network& network, const TrafficPattern& pattern,
        const SimConfig& sim_config, Ids ids)
      : detail::PacketKernel<Shard<Ids>>(network, pattern, sim_config),
        Ids(std::move(ids)), view(network, this->queue_depth) {}

  // The kernel's hooks beyond the id map: routes from the oracle at one
  // shard and from the pure NextHop under a cut; the legacy stream's
  // Welford latency mean (one shard only — a cut merges exact sums).
  std::uint32_t route(std::uint32_t at, const Packet& packet) {
    ++oracle_calls;
    if constexpr (Ids::kCut) {
      return router->next_channel_from(at, packet.src_terminal,
                                       packet.dst_terminal);
    } else {
      return oracle->next_channel(view, at, packet);
    }
  }
  void measured_latency(std::uint64_t latency) {
    if constexpr (!Ids::kCut) latency_stats.add(static_cast<double>(latency));
  }

  RoutingOracle* oracle = nullptr;            ///< one shard
  const routing::NextHop* router = nullptr;   ///< cut
  SimView view;  ///< one shard: the oracle's view of this arena's queues
  std::optional<fault::DegradedView> own_view;  ///< private liveness mask
  RunningStats latency_stats;  ///< one shard: the legacy stream's mean

  // Cut only — this cycle's proposals to this shard, ascending `from`.
  std::vector<Proposal> merged;
  std::vector<Proposal> merge_scratch;

  // Statistics beyond the kernel's, merged after the run.
  std::vector<std::uint64_t> depth_sum_by_cycle;  ///< per cycle, replayed
  std::uint64_t oracle_calls = 0;       ///< route hook calls
  std::uint64_t flying_sum = 0;         ///< per-cycle |flying| summed
  std::uint64_t sendable_sum = 0;       ///< per-cycle |sendable| summed
  std::uint64_t cross_flits = 0;
  std::uint64_t mailbox_peak = 0;
  std::array<std::uint64_t, kPhaseCount> phase_ns{};
  std::uint64_t timed_cycles = 0;
  std::uint32_t numa_node = 0;  ///< node the worker ran (and touched) on
};

LinkUtilization utilization_of(const std::vector<std::uint64_t>& busy,
                               std::uint64_t cycles) {
  LinkUtilization report;
  report.busy_fraction.resize(busy.size(), 0.0);
  if (cycles == 0 || busy.empty()) return report;
  double sum = 0.0;
  for (std::size_t c = 0; c < busy.size(); ++c) {
    // A packet transmitting across the run boundary counts its full
    // length, so clamp: a link is never more than 100% busy.
    const double frac = std::min(
        1.0, static_cast<double>(busy[c]) / static_cast<double>(cycles));
    report.busy_fraction[c] = frac;
    sum += frac;
    if (frac > report.max) {
      report.max = frac;
      report.max_channel = static_cast<std::uint32_t>(c);
    }
  }
  report.mean = sum / static_cast<double>(busy.size());
  return report;
}

}  // namespace

namespace detail {

/// What ShardedSim's accessors read, whatever the id map.
class PacketDriver {
 public:
  PacketDriver() = default;
  virtual ~PacketDriver() = default;
  PacketDriver(const PacketDriver&) = delete;
  PacketDriver& operator=(const PacketDriver&) = delete;

  virtual SimResult run() = 0;
  [[nodiscard]] virtual const std::vector<std::uint64_t>& link_busy()
      const = 0;
  [[nodiscard]] virtual std::size_t arena_bytes() const = 0;

  std::uint64_t cycles = 0;  ///< warmup + measurement
  std::uint32_t shard_count = 1;
  ShardedSim::Telemetry telemetry;
  obs::FlightRecorder recorder;
};

}  // namespace detail

namespace {

/// The one packet-engine driver, over the id map `Ids`: WholeIds at one
/// shard, CutIds under a cut.  Everything a cut alone needs — the
/// ShardPlan, mailboxes, barriers, worker threads — is built and run only
/// when Ids::kCut.
template <class Ids>
class Driver final : public detail::PacketDriver {
 public:
  static constexpr bool kCut = Ids::kCut;
  using ShardT = Shard<Ids>;

  /// PacketSim: `oracle` routes, and faults apply in place to `degraded`.
  Driver(const Network& net, RoutingOracle& oracle,
         const TrafficPattern& traffic, const SimConfig& config,
         fault::DegradedView* degraded,
         std::vector<fault::FaultEvent> fault_events)
    requires(!kCut)
      : Driver(net, nullptr, traffic, config, 1, degraded,
               std::move(fault_events)) {
    shards_[0]->oracle = &oracle;
    shards_[0]->degraded = degraded;
  }

  /// ShardedSim: the pure `router`, faults on private copies of
  /// `degraded` (at one shard through a NextHopOracle, over one copy).
  Driver(const routing::NextHop& router, const TrafficPattern& traffic,
         const SimConfig& config, std::uint32_t shards,
         const fault::DegradedView* degraded,
         std::vector<fault::FaultEvent> fault_events)
      : Driver(router.network(), &router, traffic, config, shards, degraded,
               std::move(fault_events)) {
    if constexpr (!kCut) {
      shards_[0]->oracle = &own_oracle_.emplace(router);
      if (degraded_ != nullptr) {
        shards_[0]->degraded = &shards_[0]->own_view.emplace(*degraded_);
      }
    }
  }

  SimResult run() override {
    NBCLOS_REQUIRE(!ran_, "ShardedSim::run may only be called once");
    ran_ = true;
    obs::ScopedSpan span(kCut ? "sim.sharded.run" : "sim.run", "sim");
    const auto wall_start = std::chrono::steady_clock::now();
    if constexpr (kCut) {
      // Each worker builds its arena on its own thread (first touch, so
      // the pages land on the node the worker runs on).
      sync_->run(shard_count, [this](std::uint32_t s) {
        ShardT& sh = *shards_[s];
        init_arena(sh);
        sh.numa_node = current_numa_node(numa_);
        run_cycles(sh);
      });
    } else {
      run_cycles(*shards_[0]);
    }

    SimResult result = merge_results();
    if constexpr (obs::kEnabled) {
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - wall_start;
      flush_obs(wall.count());
      span.arg("cycles", static_cast<double>(cycles));
      span.arg("shards", static_cast<double>(shard_count));
      span.arg("delivered", static_cast<double>(result.delivered_packets));
      span.arg("rate", config_.injection_rate);
    }
    return result;
  }

  /// One shard's own tallies are indexed by global channel id already.
  [[nodiscard]] const std::vector<std::uint64_t>& link_busy() const override {
    return kCut ? merged_link_busy_ : shards_[0]->link_busy;
  }

  [[nodiscard]] std::size_t arena_bytes() const override {
    std::size_t bytes = 0;
    for (const auto& sh : shards_) {
      bytes += sh->arena_bytes() +
               sh->depth_sum_by_cycle.capacity() * sizeof(std::uint64_t);
    }
    return bytes;
  }

 private:
  /// The checks and set-up both public constructors share.  One shard
  /// builds its arena now; a cut builds the plan and exchange here and
  /// each arena on its worker.
  Driver(const Network& net, const routing::NextHop* router,
         const TrafficPattern& traffic, const SimConfig& config,
         std::uint32_t shards, const fault::DegradedView* degraded,
         std::vector<fault::FaultEvent> fault_events)
      : net_(&net), traffic_(&traffic), config_(config),
        fault_events_(detail::checked_fault_schedule(
            net, traffic, config, degraded, std::move(fault_events))),
        degraded_(degraded),
        terminals_(static_cast<std::uint32_t>(traffic.terminal_count())),
        legacy_rng_(config.seed) {
    cycles = config_.warmup_cycles + config_.measure_cycles;
    if constexpr (!kCut) {
      init_arena(*shards_.emplace_back(
          std::make_unique<ShardT>(net, traffic, config_, Ids{})));
    } else {
      config_.counter_injection = true;  // the only stream a cut can split
      plan_ = ShardPlan::build(net, shards);
      shard_count = plan_.shard_count;
      shards_.reserve(shard_count);
      for (std::uint32_t s = 0; s < shard_count; ++s) {
        shards_.push_back(std::make_unique<ShardT>(
            net, traffic, config_,
            CutIds{.index = s,
                   .channel_local = plan_.channel_local.data(),
                   .channel_owner = plan_.channel_owner.data(),
                   .owned = plan_.shard_channels[s].data()}));
        shards_.back()->router = router;
      }
      proposal_box_ = MailboxGrid<Proposal>(shard_count);
      ack_box_ = MailboxGrid<Ack>(shard_count);
      sync_ = std::make_unique<ShardSync>(shard_count);
      numa_ = NumaTopology::detect();
    }
    if constexpr (obs::kEnabled) {
      if (config_.record_timeseries) {
        series_ = detail::PacketSeries::arm(recorder, config_, shard_count);
        if constexpr (kCut) {
          // Cross-shard fabric health: only meaningful relative to the
          // cut, so excluded from the shard-count-invariance contract.
          rec_mailbox_flits_ =
              recorder.series("sim.mailbox.cross_flits", obs::SeriesAgg::kSum,
                              obs::SeriesScope::kShardTopology);
          rec_mailbox_peak_ =
              recorder.series("sim.mailbox.peak", obs::SeriesAgg::kMax,
                              obs::SeriesScope::kShardTopology);
        }
      }
    }
  }

  void init_arena(ShardT& sh) {
    auto owned = net_->channel_count();
    std::uint32_t lo = 0;
    std::uint32_t hi = terminals_;
    if constexpr (kCut) {
      owned = static_cast<std::uint32_t>(plan_.shard_channels[sh.index].size());
      lo = plan_.terminal_begin[sh.index];
      hi = plan_.terminal_begin[sh.index + 1];
      if (degraded_ != nullptr) sh.degraded = &sh.own_view.emplace(*degraded_);
    }
    sh.carve(owned, lo, hi);
    sh.depth_sum_by_cycle.assign(cycles, 0);
  }

  void run_cycles(ShardT& sh) {
    for (std::uint64_t now = 0; now < cycles; ++now) {
      if constexpr (kCut) {
        if (sync_->poisoned()) {
          sync_->arrive_and_drop();
          return;
        }
      }
      const bool measuring = now >= config_.warmup_cycles;
      // Phase timing on every cycle when obs is on, except cycle 0, whose
      // first barrier also waits out the other workers' start-up and
      // arena set-up.  The clock reads never touch simulation state, so
      // the timed and untimed paths produce bit-identical results.
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
      sh.apply_due_faults(fault_events_, now);
      if constexpr (kCut) {
        propose(sh, now, measuring);
        lap(kArrivals);
        sync_->arrive_and_wait();
        lap(kBarrierWait);
        merge_proposals(sh);
        lap(kMailbox);
        admit_proposals(sh);
        lap(kArrivals);
        sync_->arrive_and_wait();
        lap(kBarrierWait);
        ack_box_.drain_to(sh.index,
                          [&](std::uint32_t, const std::vector<Ack>& box) {
                            for (const Ack& ack : box) apply_ack(sh, ack);
                          });
        lap(kMailbox);
      } else {
        // Each candidate is its proposing channel, bucketed straight from
        // the ascending arrival sweep.
        sh.arrive(now, measuring,
                  [&](std::uint32_t next, std::uint32_t c, const Packet&) {
                    sh.bucket(next, c);
                  });
        sh.admit([](std::uint32_t c) { return c; },
                 [&](std::uint32_t c) -> const Packet& {
                   sh.flight[c].valid = false;
                   return sh.flight[c].packet;
                 },
                 [&](std::uint32_t c) { sh.flying.insert(c); });
        lap(kArrivals);
      }
      // An admitted candidate freed its channel, which may load a new
      // packet in this cycle's transmissions.
      sh.transmit(now);
      lap(kTransmissions);
      inject(sh, now);
      sh.depth_sum_by_cycle[now] = sh.switch_depth_sum;
      if constexpr (obs::kEnabled) {
        sh.flying_sum += sh.flying.size();
        sh.sendable_sum += sh.sendable.size();
        // All shards see want(now) identically (same recorder geometry).
        if (recorder.want(now)) sample_recorder(sh, now);
      }
      lap(kInjection);
      if (timed) ++sh.timed_cycles;
    }
  }

  /// Cut: propose each candidate to the owner of its next channel; the
  /// ack either clears the flight (winner) or re-inserts the channel
  /// (loser — backpressure).
  void propose(ShardT& sh, std::uint64_t now, bool measuring) {
    sh.arrive(now, measuring,
              [&](std::uint32_t next, std::uint32_t li, const Packet& packet) {
                const Proposal proposal{next, sh.global(li), packet};
                const auto owner = plan_.channel_owner[next];
                if (owner == sh.index) {
                  sh.merged.push_back(proposal);
                } else {
                  proposal_box_.box(sh.index, owner).push_back(proposal);
                  sh.cross_flits += packet.size_flits;
                }
              });
  }

  /// Cut: merge the mailboxes into this shard's own proposals.  Every run
  /// ascends by proposing channel — this shard's own arrival sweep and
  /// each owner's box — so `merged` keeps the one-shard sweep order.
  void merge_proposals(ShardT& sh) {
    const auto by_from = [](const Proposal& a, const Proposal& b) {
      return a.from < b.from;
    };
    proposal_box_.drain_to(sh.index, [&](std::uint32_t,
                                         const std::vector<Proposal>& box) {
      sh.mailbox_peak = std::max<std::uint64_t>(sh.mailbox_peak, box.size());
      merge_run(sh.merged, box, sh.merge_scratch, by_from);
    });
  }

  /// Cut: each candidate is its index into `merged`, whose ascending
  /// proposing-channel order every bucket keeps.  The proposer learns the
  /// outcome from an ack: the winner's packet left its channel, the
  /// loser stalls there.
  void admit_proposals(ShardT& sh) {
    const auto& merged = sh.merged;
    for (std::uint32_t k = 0; k < merged.size(); ++k) {
      sh.bucket(merged[k].target, k);
    }
    sh.admit([&](std::uint32_t k) { return merged[k].from; },
             [&](std::uint32_t k) -> const Packet& {
               send_ack(sh, Ack{merged[k].from, true});
               return merged[k].packet;
             },
             [&](std::uint32_t k) {
               send_ack(sh, Ack{merged[k].from, false});
             });
    sh.merged.clear();
  }

  void send_ack(ShardT& sh, const Ack& ack) {
    const auto owner = plan_.channel_owner[ack.from];
    if (owner == sh.index) {
      apply_ack(sh, ack);
    } else {
      ack_box_.box(sh.index, owner).push_back(ack);
    }
  }

  static void apply_ack(ShardT& sh, const Ack& ack) {
    const auto li = sh.channel(ack.from);
    if (ack.accepted) {
      sh.flight[li].valid = false;
    } else {
      sh.flying.insert(li);
    }
  }

  void inject(ShardT& sh, std::uint64_t now) {
    if (kCut || config_.counter_injection) {
      // Each terminal's draws come from a generator keyed purely by
      // (seed, cycle, terminal), whichever shard owns it.
      sh.inject_counter(now);
      return;
    }
    // One shard only: the legacy sequential stream (one bernoulli, then
    // one destination draw, terminals ascending) the recorded goldens and
    // FlowSim's cross-engine equivalence pin.
    for (std::uint32_t t = 0; t < terminals_; ++t) {
      if (!legacy_rng_.bernoulli(sh.packet_rate)) continue;
      const auto dst = traffic_->destination(t, legacy_rng_);
      if (dst.has_value()) sh.inject(t, *dst, now);
    }
  }

  void sample_recorder(ShardT& sh, std::uint64_t now) {
    sh.sample(recorder, series_, sh.index, now);
    if constexpr (kCut) {
      recorder.record(rec_mailbox_flits_, sh.index, now,
                      static_cast<std::int64_t>(sh.cross_flits));
      recorder.record(rec_mailbox_peak_, sh.index, now,
                      static_cast<std::int64_t>(sh.mailbox_peak));
    }
  }

  [[nodiscard]] SimResult merge_results() {
    SimResult result;
    result.offered_load = config_.injection_rate;

    std::uint64_t delivered_measured_flits = 0;
    std::uint64_t latency_sum = 0;
    std::uint64_t latency_count = 0;
    std::uint64_t switch_channels = 0;
    QuantileHistogram hist(cycles);
    telemetry = ShardedSim::Telemetry{};
    for (const auto& shard : shards_) {
      const ShardT& sh = *shard;
      result.injected_packets += sh.injected;
      result.delivered_packets += sh.delivered_packets;
      result.dropped_packets += sh.dropped;
      delivered_measured_flits += sh.delivered_measured_flits;
      latency_sum += sh.latency_sum;
      latency_count += sh.latency_count;
      switch_channels += sh.switch_channel_count;
      hist.merge(sh.latency_hist);
      telemetry.cross_shard_flits += sh.cross_flits;
      telemetry.mailbox_peak =
          std::max(telemetry.mailbox_peak, sh.mailbox_peak);
      telemetry.remaining_packets += sh.remaining();
    }

    result.accepted_throughput =
        static_cast<double>(delivered_measured_flits) /
        (static_cast<double>(config_.measure_cycles) *
         static_cast<double>(terminals_));
    // Counter mode reports the exact integer mean (order-independent, so
    // it merges across shards).  The legacy stream runs at one shard only
    // and keeps its Welford mean, which the recorded goldens pin.
    if (config_.counter_injection) {
      result.mean_latency = latency_count > 0
                                ? static_cast<double>(latency_sum) /
                                      static_cast<double>(latency_count)
                                : 0.0;
    } else {
      result.mean_latency = shards_[0]->latency_stats.mean();
    }
    result.latency_bucket_width = static_cast<double>(hist.bucket_width());
    if (hist.count() > 0) {
      result.p50_latency = hist.quantile(0.50);
      result.p99_latency = hist.quantile(0.99);
      result.p999_latency = hist.quantile(0.999);
    }

    // Mean switch-queue depth: a Welford stream over the measured cycles,
    // each sample the summed depth over the global switch channel count,
    // added in cycle order — the same at any shard count.
    RunningStats depth_samples;
    if (switch_channels > 0) {
      for (std::uint64_t cycle = config_.warmup_cycles; cycle < cycles;
           ++cycle) {
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
        result, terminals_, config_.measure_cycles,
        [&](std::uint32_t t) {
          const ShardT& owner = *shards_[kCut ? plan_.shard_of_vertex(t) : 0];
          return owner.flow_sequence[t - owner.term_lo] != 0;
        },
        [&](std::uint32_t t) {
          std::uint64_t flits = 0;
          for (const auto& shard : shards_) {
            flits += shard->delivered_per_source[t];
          }
          return flits;
        });

    if constexpr (kCut) {
      // Exactly one shard owns (and tallies) each channel, so the merge
      // is a gather by global id, not a sum.
      merged_link_busy_.assign(net_->channel_count(), 0);
      for (const auto& shard : shards_) {
        const ShardT& sh = *shard;
        for (std::uint32_t li = 0; li < sh.link_busy.size(); ++li) {
          merged_link_busy_[sh.global(li)] = sh.link_busy[li];
        }
      }
    }
    return result;
  }

  void flush_obs(double wall_seconds) {
    if (!obs::enabled()) return;
    auto& m = obs::metrics();
    std::uint64_t oracle_calls = 0;
    std::uint64_t flying = 0;
    std::uint64_t sendable = 0;
    std::uint64_t depth_sum = 0;
    for (const auto& shard : shards_) {
      const ShardT& sh = *shard;
      sh.flush_counts();
      oracle_calls += sh.oracle_calls;
      flying += sh.flying_sum;
      sendable += sh.sendable_sum;
      depth_sum += sh.switch_depth_sum;
    }
    m.counter("sim.runs").add(1);
    m.counter("sim.cycles").add(cycles);
    m.counter("sim.oracle.calls").add(oracle_calls);
    // Active-channel counts: channel-cycles divided by sim.cycles gives the
    // mean number of simultaneously active channels.
    m.counter("sim.active.flying_channel_cycles").add(flying);
    m.counter("sim.active.sendable_channel_cycles").add(sendable);
    // Queue depth at end of run plus the high-water over runs (gauge max).
    m.gauge("sim.queue.switch_depth_sum")
        .set(static_cast<std::int64_t>(depth_sum));
    m.gauge("sim.link.max_util_ppm")
        .set(static_cast<std::int64_t>(
            utilization_of(link_busy(), cycles).max * 1e6));
    if constexpr (kCut) {
      m.counter("sim.sharded.runs").add(1);
      m.gauge("sim.sharded.shards").set(shard_count);
      m.counter("sim.sharded.cross_shard_flits")
          .add(telemetry.cross_shard_flits);
      m.gauge("sim.sharded.mailbox_peak")
          .set(static_cast<std::int64_t>(telemetry.mailbox_peak));
    }
    // Per-shard phase costs, ns per timed cycle: one histogram sample per
    // shard, so the spread across samples is the load skew.
    // The histograms clamp at their cap; the exact ns, summed over shards
    // and timed cycles, go to a "<phase>_total" counter beside each, with
    // the timed shard-cycles in sim.phase.timed_cycles.
    const std::uint64_t cap = 1'000'000;  // 1 ms/cycle ceiling per phase
    const std::size_t phases = kCut ? kPhaseCount : kMailbox;
    std::uint64_t timed_cycles = 0;
    for (const auto& shard : shards_) {
      const ShardT& sh = *shard;
      if constexpr (kCut) {
        // Queued packets left at end of run, and the node the arena's
        // pages live on (first touch).
        const std::string prefix =
            "sim.sharded.shard." + std::to_string(sh.index);
        m.gauge(prefix + ".depth_sum")
            .set(static_cast<std::int64_t>(sh.switch_depth_sum));
        m.gauge(prefix + ".numa_node")
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
    m.counter("sim.phase.timed_cycles").add(timed_cycles);
    m.counter("sim.wall_us")
        .add(static_cast<std::uint64_t>(wall_seconds * 1e6));
  }

  const Network* net_;
  const TrafficPattern* traffic_;
  SimConfig config_;
  std::vector<fault::FaultEvent> fault_events_;  ///< sorted by cycle
  const fault::DegradedView* degraded_;  ///< cut: copied per shard
  std::uint32_t terminals_;
  std::vector<std::unique_ptr<ShardT>> shards_;
  detail::PacketSeries series_;
  bool ran_ = false;

  // One shard only.
  Xoshiro256 legacy_rng_;  ///< legacy injection stream
  std::optional<NextHopOracle> own_oracle_;  ///< the NextHop constructor's

  // Cut only.
  ShardPlan plan_;
  std::vector<std::uint64_t> merged_link_busy_;  ///< gathered after join
  /// SPSC mailboxes (shard_exchange.hpp): written in disjoint epoch
  /// windows — proposals downstream before barrier 1, acks upstream
  /// between the barriers.
  MailboxGrid<Proposal> proposal_box_;
  MailboxGrid<Ack> ack_box_;
  std::unique_ptr<ShardSync> sync_;
  NumaTopology numa_;
  obs::FlightRecorder::SeriesId rec_mailbox_flits_ = 0;
  obs::FlightRecorder::SeriesId rec_mailbox_peak_ = 0;
};

}  // namespace

ShardedSim::ShardedSim(const routing::NextHop& router,
                       const TrafficPattern& traffic, SimConfig config,
                       std::uint32_t shards,
                       const fault::DegradedView* degraded,
                       std::vector<fault::FaultEvent> fault_events) {
  config.counter_injection = true;  // the stream every shard count runs
  if (shards > 1) {
    driver_ = std::make_unique<Driver<CutIds>>(
        router, traffic, config, shards, degraded, std::move(fault_events));
  } else {
    driver_ = std::make_unique<Driver<WholeIds>>(
        router, traffic, config, 1, degraded, std::move(fault_events));
  }
}

ShardedSim::ShardedSim(const Network& net, RoutingOracle& oracle,
                       const TrafficPattern& traffic, SimConfig config,
                       fault::DegradedView* degraded,
                       std::vector<fault::FaultEvent> fault_events)
    : driver_(std::make_unique<Driver<WholeIds>>(
          net, oracle, traffic, config, degraded, std::move(fault_events))) {}

ShardedSim::~ShardedSim() = default;

SimResult ShardedSim::run() { return driver_->run(); }

const std::vector<std::uint64_t>& ShardedSim::link_busy_flits() const {
  return driver_->link_busy();
}

LinkUtilization ShardedSim::link_utilization() const {
  return utilization_of(driver_->link_busy(), driver_->cycles);
}

std::uint32_t ShardedSim::shard_count() const noexcept {
  return driver_->shard_count;
}

const ShardedSim::Telemetry& ShardedSim::telemetry() const noexcept {
  return driver_->telemetry;
}

std::size_t ShardedSim::arena_bytes() const noexcept {
  return driver_->arena_bytes();
}

const obs::FlightRecorder& ShardedSim::recorder() const {
  return driver_->recorder;
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
