/// \file test_flow_sharded.cpp
/// \brief ShardedFlowSim determinism: bit-identical FlowResults against
///        serial FlowSim (counter injection) at 1/2/3/4/8 shards — for
///        wormhole and virtual cut-through, credit and on/off
///        backpressure, under mid-run fault schedules, and through a
///        genuine cross-shard deadlock where the watchdog verdict must
///        come from epoch totals aggregated over ALL shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/core/multilevel.hpp"
#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/flow/sharded.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/util/prng.hpp"

namespace nbclos {
namespace {

using flow::Backpressure;
using flow::FlowConfig;
using flow::FlowResult;
using flow::FlowSim;
using flow::ShardedFlowSim;
using flow::Switching;

/// EXPECT_EQ on every FlowResult field.  Doubles compare exactly: the
/// sharded merges are defined to replay serial's arithmetic bit for bit.
void expect_identical(const FlowResult& a, const FlowResult& b,
                      std::uint32_t shards) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.p999_latency, b.p999_latency);
  EXPECT_EQ(a.latency_bucket_width, b.latency_bucket_width);
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.mean_switch_queue_depth, b.mean_switch_queue_depth);
  EXPECT_EQ(a.min_flow_throughput, b.min_flow_throughput);
  EXPECT_EQ(a.max_flow_throughput, b.max_flow_throughput);
  EXPECT_EQ(a.credit_stall_cycles, b.credit_stall_cycles);
  EXPECT_EQ(a.vc_stall_cycles, b.vc_stall_cycles);
  EXPECT_EQ(a.mean_stall_cycles, b.mean_stall_cycles);
  EXPECT_EQ(a.p99_stall_cycles, b.p99_stall_cycles);
  EXPECT_EQ(a.peak_buffer_flits, b.peak_buffer_flits);
  EXPECT_EQ(a.peak_live_packets, b.peak_live_packets);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.deadlock_cycle, b.deadlock_cycle);
  EXPECT_EQ(a.stuck_flits, b.stuck_flits);
  EXPECT_EQ(a.stuck_buffers, b.stuck_buffers);
}

/// ftree(2+4, 3): 6 terminals, enough levels for multi-hop worms, small
/// enough that 4 engines x 4 shard counts stay fast.
class FlowSharded : public ::testing::Test {
 protected:
  FlowSharded()
      : ft(FtreeParams{2, 4, 3}),
        net(build_network(ft)),
        yuan(ft),
        cache(routing::ChannelRouteCache::materialize(net, yuan)),
        traffic(sim::TrafficPattern::permutation(
            shift_permutation(ft.leaf_count(), 5), ft.leaf_count())) {}

  FlowConfig base_config() const {
    FlowConfig config;
    config.injection_rate = 0.6;  // deep enough to engage backpressure
    config.packet_flits = 3;
    config.buffer_flits = 4;
    config.vcs = 1;
    config.warmup_cycles = 300;
    config.measure_cycles = 1700;
    config.watchdog_epoch = 256;
    config.seed = 20260809;
    config.counter_injection = true;
    return config;
  }

  /// Serial FlowSim against ShardedFlowSim at each of `shard_counts`:
  /// every FlowResult field and the per-channel link_busy tallies.
  /// Returns each sharded run's cross-shard credit count.
  static std::vector<std::uint64_t> check_shard_counts(
      const std::shared_ptr<const routing::NextHop>& routes,
      const sim::TrafficPattern& pattern, const FlowConfig& config,
      const std::vector<std::uint32_t>& shard_counts,
      const fault::DegradedView* degraded = nullptr,
      const std::vector<fault::FaultEvent>& events = {}) {
    FlowSim serial(routes, pattern, config, degraded, events);
    const FlowResult golden = serial.run();
    const auto serial_busy = serial.link_busy_flits();
    std::vector<std::uint64_t> credits;
    for (const std::uint32_t shards : shard_counts) {
      ShardedFlowSim sharded(routes, pattern, config, shards, degraded,
                             events);
      const FlowResult got = sharded.run();
      expect_identical(golden, got, shards);
      EXPECT_EQ(serial_busy, sharded.link_busy_flits())
          << "link_busy diverged at " << shards << " shards";
      credits.push_back(sharded.telemetry().cross_shard_credits);
    }
    return credits;
  }

  void check_all_shard_counts(const FlowConfig& config,
                              const fault::DegradedView* degraded = nullptr,
                              std::vector<fault::FaultEvent> events = {}) {
    (void)check_shard_counts(cache, traffic, config, {1, 2, 3, 4, 8},
                             degraded, events);
  }

  FoldedClos ft;
  Network net;
  YuanNonblockingRouting yuan;
  std::shared_ptr<const routing::ChannelRouteCache> cache;
  sim::TrafficPattern traffic;
};

TEST_F(FlowSharded, BitIdenticalWormholeCredit) {
  check_all_shard_counts(base_config());
}

TEST_F(FlowSharded, BitIdenticalWormholeOnOff) {
  FlowConfig config = base_config();
  config.backpressure = Backpressure::kOnOff;
  check_all_shard_counts(config);
}

TEST_F(FlowSharded, BitIdenticalVctCredit) {
  FlowConfig config = base_config();
  config.switching = Switching::kVirtualCutThrough;
  check_all_shard_counts(config);
}

TEST_F(FlowSharded, BitIdenticalVctOnOff) {
  FlowConfig config = base_config();
  config.switching = Switching::kVirtualCutThrough;
  config.backpressure = Backpressure::kOnOff;
  check_all_shard_counts(config);
}

/// Credits that return three cycles after the pop: every return from a
/// channel whose ends sit on two shards crosses the cut, lands in the
/// writer's delay line and must still come due in the one-shard cycle.
/// The ledger closes its conservation identity after every cut.
TEST_F(FlowSharded, BitIdenticalDelayedCredits) {
  for (const Switching switching :
       {Switching::kWormhole, Switching::kVirtualCutThrough}) {
    SCOPED_TRACE(switching == Switching::kWormhole ? "wormhole" : "vct");
    FlowConfig config = base_config();
    config.switching = switching;
    config.credit_delay = 3;
    check_all_shard_counts(config);
    for (const std::uint32_t shards : {2u, 3u, 4u, 8u}) {
      ShardedFlowSim sharded(cache, traffic, config, shards);
      (void)sharded.run();
      EXPECT_TRUE(sharded.credit_conservation_holds()) << shards << " shards";
    }
  }
}

TEST_F(FlowSharded, BitIdenticalMultiVcUniformTraffic) {
  traffic = sim::TrafficPattern::uniform(ft.leaf_count());
  FlowConfig config = base_config();
  config.vcs = 2;
  config.injection_rate = 0.8;
  check_all_shard_counts(config);
}

/// Three VCs: the round-robin and first-free scans wrap at a count that
/// is not a power of two.
TEST_F(FlowSharded, BitIdenticalThreeVcWormholeCredit) {
  traffic = sim::TrafficPattern::uniform(ft.leaf_count());
  FlowConfig config = base_config();
  config.vcs = 3;
  config.injection_rate = 0.8;
  check_all_shard_counts(config);
}

TEST_F(FlowSharded, BitIdenticalThreeVcVctOnOff) {
  traffic = sim::TrafficPattern::uniform(ft.leaf_count());
  FlowConfig config = base_config();
  config.vcs = 3;
  config.injection_rate = 0.8;
  config.switching = Switching::kVirtualCutThrough;
  config.backpressure = Backpressure::kOnOff;
  check_all_shard_counts(config);
}

/// Both engines share one VC limit: 32 (FlowConfig::kMaxVcs).
TEST_F(FlowSharded, BothEnginesShareTheVcLimit) {
  FlowConfig config = base_config();
  config.vcs = 33;
  EXPECT_THROW(FlowSim(cache, traffic, config), precondition_error);
  EXPECT_THROW(ShardedFlowSim(cache, traffic, config, 2), precondition_error);
  config.vcs = 32;
  check_all_shard_counts(config);
}

/// Mid-run fault schedule: a spine channel dies (worms block in place, a
/// stall signature), a NIC uplink dies (injection drops), and the spine
/// recovers — every shard replays the same schedule on its private copy.
TEST_F(FlowSharded, BitIdenticalUnderFaultSchedule) {
  fault::DegradedView view(net);
  std::uint32_t spine = UINT32_MAX;
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    const bool from_switch =
        net.vertex(net.channel_src(c)).kind != VertexKind::kTerminal;
    const bool to_switch =
        net.vertex(net.channel_dst(c)).kind != VertexKind::kTerminal;
    if (from_switch && to_switch) {
      spine = c;
      break;
    }
  }
  ASSERT_NE(spine, UINT32_MAX);
  std::uint32_t nic = UINT32_MAX;
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    if (net.vertex(net.channel_src(c)).kind == VertexKind::kTerminal) {
      nic = c;
      break;
    }
  }
  ASSERT_NE(nic, UINT32_MAX);
  const std::vector<fault::FaultEvent> events{
      {500, fault::FaultAction::kFailChannel, spine},
      {700, fault::FaultAction::kFailChannel, nic},
      {1100, fault::FaultAction::kRecoverChannel, spine},
  };
  FlowConfig config = base_config();
  config.watchdog_epoch = 0;  // blocked worms are expected mid-schedule
  check_all_shard_counts(config, &view, events);
  // The schedule must actually have bitten: rerun serially and check the
  // drop counter engaged (regression against a silently dead schedule).
  FlowSim probe(cache, traffic, config, &view, events);
  EXPECT_GT(probe.run().dropped_packets, 0U);
}

/// The §IV recursive fabric as its own NextHop: the flow engine's
/// identity contract holds off the ftree and k-ary builders too, and the
/// credit ledger closes after every cut.
TEST_F(FlowSharded, BitIdenticalOnMultiLevelFabric) {
  const auto fabric = std::make_shared<const MultiLevelFabric>(2, 3);
  const std::uint32_t ports = fabric->port_count();  // 24
  const auto pattern = sim::TrafficPattern::permutation(
      shift_permutation(ports, 5), ports);
  FlowConfig config;
  config.injection_rate = 0.6;
  config.packet_flits = 4;  // wormhole, credit backpressure
  config.warmup_cycles = 200;
  config.measure_cycles = 1000;
  config.counter_injection = true;
  FlowSim serial(fabric, pattern, config);
  const FlowResult golden = serial.run();
  EXPECT_EQ(golden.accepted_throughput, 0.601375);
  EXPECT_EQ(golden.delivered_packets, 4262U);
  (void)check_shard_counts(fabric, pattern, config, {1, 2, 3, 4, 8});
  for (const std::uint32_t shards : {2u, 3u, 4u, 8u}) {
    ShardedFlowSim sharded(fabric, pattern, config, shards);
    (void)sharded.run();
    EXPECT_TRUE(sharded.credit_conservation_holds()) << shards << " shards";
  }
}

/// The flow benchmark's own margin probes: ftree(4+16, 32) (512
/// terminals) under Theorem 3 routes, a seeded derangement, load 0.9 and
/// 4-flit packets.  Both are saturated and stall across every shard cut:
/// at the benchmark's 500 + 1500 cycles wormhole at depth 1 accepts 0.5
/// with 127,581 credit-stall cycles, VCT at depth 4 accepts 0.799 with
/// 50,162.  Here they run a quarter as long (still saturated: 31,581
/// and 11,867 credit-stall cycles).  The cross-shard credit counts are
/// the ones recorded when executors still mailed credits back.
TEST_F(FlowSharded, BitIdenticalOnBenchmarkMarginProbes) {
  const FoldedClos probe_ft(FtreeParams{4, 16, 32});
  const Network probe_net = build_network(probe_ft);
  const YuanNonblockingRouting probe_yuan(probe_ft);
  const auto probe_cache =
      routing::ChannelRouteCache::materialize(probe_net, probe_yuan);
  // Sattolo's shuffle, seed 1: one random cycle through every terminal.
  const std::uint32_t terminals = probe_ft.leaf_count();
  std::vector<std::uint32_t> target(terminals);
  std::iota(target.begin(), target.end(), 0u);
  Xoshiro256 rng(1);
  for (std::uint32_t i = terminals - 1; i > 0; --i) {
    std::swap(target[i], target[rng.below(i)]);
  }
  const auto pattern = sim::TrafficPattern::permutation(
      permutation_from_targets(target), terminals);

  struct Probe {
    Switching switching;
    std::uint32_t depth;
    std::vector<std::uint64_t> cross_credits;  ///< at 1, 2, 3 shards
  };
  for (const Probe& probe :
       {Probe{Switching::kWormhole, 1, {0, 30603, 40968}},
        Probe{Switching::kVirtualCutThrough, 4, {0, 47973, 64157}}}) {
    SCOPED_TRACE("depth=" + std::to_string(probe.depth));
    FlowConfig config;
    config.injection_rate = 0.9;
    config.packet_flits = 4;
    config.buffer_flits = probe.depth;
    config.switching = probe.switching;
    config.warmup_cycles = 100;
    config.measure_cycles = 400;
    config.seed = 1;
    config.counter_injection = true;
    EXPECT_EQ(check_shard_counts(probe_cache, pattern, config, {1, 2, 3}),
              probe.cross_credits);
  }
}

// ---------------------------------------------------------------------------
// Watchdog aggregation across shards: the canonical 4-switch directed
// ring wedge (see test_flow_deadlock.cpp).  The cycle spans every shard
// cut, so each shard alone sees partial (even negative) flit counts —
// only the aggregated epoch totals give the serial verdict.

constexpr std::uint32_t kRing = 4;

struct RingFabric {
  RingFabric() {
    for (std::uint32_t i = 0; i < kRing; ++i) {
      net.add_vertex(VertexKind::kTerminal, 0, i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      net.add_vertex(VertexKind::kSwitch, 1, i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      nic[i] = net.add_channel(i, kRing + i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      eject[i] = net.add_channel(kRing + i, i);
    }
    for (std::uint32_t i = 0; i < kRing; ++i) {
      ring[i] = net.add_channel(kRing + i, kRing + (i + 1) % kRing);
    }
    net.finalize();
    cache = std::make_shared<const routing::ChannelRouteCache>(
        net, [this](SDPair sd) {
          std::vector<std::uint32_t> path{nic[sd.src.value]};
          for (std::uint32_t at = sd.src.value; at != sd.dst.value;
               at = (at + 1) % kRing) {
            path.push_back(ring[at]);
          }
          path.push_back(eject[sd.dst.value]);
          return path;
        });
  }

  Network net;
  std::uint32_t nic[kRing];
  std::uint32_t eject[kRing];
  std::uint32_t ring[kRing];
  std::shared_ptr<const routing::ChannelRouteCache> cache;
};

FlowConfig wedge_config() {
  FlowConfig config;
  config.injection_rate = 1.0;
  config.packet_flits = 6;  // worm longer than the buffer: spans routers
  config.buffer_flits = 2;
  config.vcs = 1;
  config.switching = Switching::kWormhole;
  config.backpressure = Backpressure::kCredit;
  config.warmup_cycles = 200;
  config.measure_cycles = 1800;
  config.watchdog_epoch = 128;
  config.seed = 99;
  config.counter_injection = true;
  return config;
}

TEST(FlowShardedWatchdog, VerdictMatchesSerialAcrossShardCuts) {
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 2), kRing);
  FlowSim serial(fab.cache, traffic, wedge_config());
  const FlowResult golden = serial.run();
  ASSERT_TRUE(golden.deadlocked);
  ASSERT_GT(golden.stuck_flits, 0U);
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    ShardedFlowSim sharded(fab.cache, traffic, wedge_config(), shards);
    const FlowResult got = sharded.run();
    expect_identical(golden, got, shards);
  }
}

/// A fault-induced global stall: at cycle 600 every channel dies, so
/// in-flight flits freeze while injection keeps dropping.  The watchdog
/// must still aggregate the (now static) flit counts across shards and
/// trip at the same epoch as serial.
TEST(FlowShardedWatchdog, FaultInducedTripMatchesSerial) {
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 1), kRing);
  fault::DegradedView view(fab.net);
  std::vector<fault::FaultEvent> events;
  for (std::uint32_t c = 0; c < fab.net.channel_count(); ++c) {
    events.push_back({600, fault::FaultAction::kFailChannel, c});
  }
  FlowConfig config = wedge_config();
  config.packet_flits = 2;  // no intrinsic wedge: only the fault stalls it
  config.buffer_flits = 4;
  FlowSim serial(fab.cache, traffic, config, &view, events);
  const FlowResult golden = serial.run();
  ASSERT_TRUE(golden.deadlocked);
  EXPECT_GE(golden.deadlock_cycle, 600U);
  EXPECT_GT(golden.dropped_packets, 0U);
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    ShardedFlowSim sharded(fab.cache, traffic, config, shards, &view, events);
    const FlowResult got = sharded.run();
    expect_identical(golden, got, shards);
  }
}

// ---------------------------------------------------------------------------
// Flight recorder: the merged invariant series must replay serial's
// samples bit for bit at every shard count, and a watchdog trip must
// produce the same forensics (blocked FIFOs + circular wait) everywhere.

/// The invariant subset of merged(), as comparable values.
std::vector<obs::MergedSeries> invariant_series(
    const obs::FlightRecorder& recorder) {
  std::vector<obs::MergedSeries> out;
  for (auto& series : recorder.merged()) {
    if (series.scope == obs::SeriesScope::kInvariant) {
      out.push_back(std::move(series));
    }
  }
  return out;
}

void expect_identical_series(const std::vector<obs::MergedSeries>& golden,
                             const std::vector<obs::MergedSeries>& got,
                             std::uint32_t shards) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  ASSERT_EQ(golden.size(), got.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("series=" + golden[i].name);
    EXPECT_EQ(golden[i].name, got[i].name);
    EXPECT_EQ(golden[i].agg, got[i].agg);
    EXPECT_EQ(golden[i].stride_cycles, got[i].stride_cycles);
    EXPECT_EQ(golden[i].points, got[i].points);
  }
}

TEST_F(FlowSharded, MergedTimeseriesBitIdenticalAcrossShardCounts) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  FlowConfig config = base_config();
  config.record_timeseries = true;
  config.record_cadence = 32;
  config.record_ring_capacity = 24;  // small ring: downsampling engages
  FlowSim serial(cache, traffic, config);
  const FlowResult golden_result = serial.run();
  const auto golden = invariant_series(serial.recorder());
  ASSERT_GE(golden.size(), 7U);
  ASSERT_FALSE(golden[0].points.empty());
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    ShardedFlowSim sharded(cache, traffic, config, shards);
    const FlowResult got = sharded.run();
    expect_identical(golden_result, got, shards);
    expect_identical_series(golden, invariant_series(sharded.recorder()),
                            shards);
  }
}

TEST_F(FlowSharded, TwoShardRunRecordsPhaseTimersPerShard) {
  // Every cycle but the first each shard times the four one-shard
  // phases, its mail and its barrier wait; flush_obs records one mean
  // per shard, and beside it a "_total" counter of the exact ns summed
  // over shards and timed cycles.  Obs-off builds compile the timers out,
  // so nothing is recorded there.
  auto& registry = obs::metrics();
  registry.reset();
  ShardedFlowSim sharded(cache, traffic, base_config(), 2);
  ASSERT_EQ(sharded.shard_count(), 2U);
  (void)sharded.run();
  const auto snapshot = registry.snapshot();
  const auto find = [&](const std::string& name) {
    return std::find_if(
        snapshot.begin(), snapshot.end(),
        [&](const obs::MetricSample& m) { return m.name == name; });
  };
  for (const std::string name :
       {"flow.sharded.barrier_wait_ns", "flow.phase.credit_returns_ns",
        "flow.phase.arrivals_ns", "flow.phase.transmissions_ns",
        "flow.phase.injection_ns", "flow.phase.mailbox_ns"}) {
    const auto it = find(name);
    const auto total = find(name + "_total");
    if constexpr (obs::kEnabled) {
      ASSERT_NE(it, snapshot.end()) << name;
      EXPECT_EQ(it->kind, obs::MetricSample::Kind::kHistogram) << name;
      EXPECT_EQ(it->count, 2U) << name;  // one sample per shard
      ASSERT_NE(total, snapshot.end()) << name;
      EXPECT_EQ(total->kind, obs::MetricSample::Kind::kCounter) << name;
    } else {
      EXPECT_EQ(it, snapshot.end()) << name;
      EXPECT_EQ(total, snapshot.end()) << name;
    }
  }
  if constexpr (obs::kEnabled) {
    // Two shards, each timed on every cycle but cycle 0.
    const auto timed = find("flow.phase.timed_cycles");
    ASSERT_NE(timed, snapshot.end());
    ASSERT_NE(find("flow.cycles"), snapshot.end());
    EXPECT_GT(timed->count, 0U);
    EXPECT_EQ(timed->count, 2 * (find("flow.cycles")->count - 1));
  }
}

/// A cut crosses one barrier per cycle, plus the watchdog's epoch
/// barrier in epoch cycles: everything a move changes across the cut
/// travels in the one exchange.
TEST_F(FlowSharded, OneBarrierPerCyclePlusOnePerEpoch) {
  const FlowConfig config = base_config();
  const std::uint64_t cycles = config.warmup_cycles + config.measure_cycles;
  for (const std::uint32_t shards : {2u, 4u}) {
    ShardedFlowSim sharded(cache, traffic, config, shards);
    ASSERT_FALSE(sharded.run().deadlocked);
    EXPECT_EQ(sharded.telemetry().barrier_phases,
              cycles + cycles / config.watchdog_epoch)
        << shards << " shards";
  }
  ShardedFlowSim one(cache, traffic, config, 1);
  (void)one.run();
  EXPECT_EQ(one.telemetry().barrier_phases, 0U);
}

/// flow.buffer.pool_bytes is the flit pool, summed over shards: what
/// arena_stats() reports as flit_arena_bytes.
TEST_F(FlowSharded, PoolBytesGaugeIsTheFlitArena) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& registry = obs::metrics();
  for (const std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    registry.reset();
    ShardedFlowSim sharded(cache, traffic, base_config(), shards);
    (void)sharded.run();
    EXPECT_EQ(registry.gauge("flow.buffer.pool_bytes").value(),
              static_cast<std::int64_t>(
                  sharded.arena_stats().flit_arena_bytes));
  }
}

/// The flow.stall_cycles obs histogram gets every stall episode from
/// either engine: its merged count and quantiles must not depend on the
/// shard count.
TEST_F(FlowSharded, StallHistogramMatchesSerialAtAnyShardCount) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& registry = obs::metrics();
  const auto stall_histogram = [&] {
    const auto snapshot = registry.snapshot();
    const auto it = std::find_if(
        snapshot.begin(), snapshot.end(),
        [](const obs::MetricSample& m) { return m.name == "flow.stall_cycles"; });
    return it == snapshot.end() ? obs::MetricSample{} : *it;
  };
  FlowConfig config = base_config();
  config.buffer_flits = 1;  // wormhole at depth 1: many stall episodes
  registry.reset();
  const FlowResult golden_result = FlowSim(cache, traffic, config).run();
  const obs::MetricSample golden = stall_histogram();
  ASSERT_EQ(golden.kind, obs::MetricSample::Kind::kHistogram);
  ASSERT_GT(golden.count, 0U);
  for (const std::uint32_t shards : {1u, 2u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    registry.reset();
    ShardedFlowSim sharded(cache, traffic, config, shards);
    expect_identical(golden_result, sharded.run(), shards);
    const obs::MetricSample got = stall_histogram();
    EXPECT_EQ(got.kind, golden.kind);
    EXPECT_EQ(got.count, golden.count);
    EXPECT_EQ(got.p50, golden.p50);
    EXPECT_EQ(got.p99, golden.p99);
    EXPECT_EQ(got.p999, golden.p999);
    EXPECT_EQ(got.hist_bucket_width, golden.hist_bucket_width);
  }
}

TEST(FlowShardedForensics, WatchdogTripNamesTheDeadlockedFifos) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  RingFabric fab;
  const auto traffic =
      sim::TrafficPattern::permutation(shift_permutation(kRing, 2), kRing);
  FlowConfig config = wedge_config();
  config.record_timeseries = true;
  config.record_cadence = 32;
  FlowSim serial(fab.cache, traffic, config);
  ASSERT_TRUE(serial.run().deadlocked);
  const auto& golden = serial.forensics();
  ASSERT_TRUE(golden.valid);
  ASSERT_FALSE(golden.blocked.empty());
  EXPECT_GT(golden.stuck_flits, 0U);
  // The wedge is a genuine circular wait around the 4 ring buffers: the
  // chain walk must find it, and every on-cycle report must both wait on
  // another buffer and hold flits.
  ASSERT_GE(golden.wait_cycle.size(), 2U);
  for (const auto& report : golden.blocked) {
    EXPECT_GT(report.occupancy, 0U);
    if (report.on_cycle) {
      EXPECT_NE(report.waiting_for, flow::BlockedBufferReport::kWaitsOnNone);
    }
  }
  // The cycle closes: each chain member's wait target is the next member.
  for (std::size_t i = 0; i < golden.wait_cycle.size(); ++i) {
    const auto next = golden.wait_cycle[(i + 1) % golden.wait_cycle.size()];
    const auto at = golden.wait_cycle[i];
    bool found = false;
    for (const auto& report : golden.blocked) {
      if (report.buffer == at) {
        EXPECT_EQ(report.waiting_for, next);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "chain member " << at << " has no report";
  }
  // The recorder tail rode along with the trip.
  EXPECT_FALSE(golden.tail.empty());

  // Sharded runs reconstruct the same global-id forensics from per-shard
  // state, even when the wait cycle crosses every shard boundary.
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedFlowSim sharded(fab.cache, traffic, config, shards);
    ASSERT_TRUE(sharded.run().deadlocked);
    const auto& got = sharded.forensics();
    ASSERT_TRUE(got.valid);
    EXPECT_EQ(got.trip_cycle, golden.trip_cycle);
    EXPECT_EQ(got.stuck_flits, golden.stuck_flits);
    ASSERT_EQ(got.blocked.size(), golden.blocked.size());
    for (std::size_t i = 0; i < golden.blocked.size(); ++i) {
      EXPECT_EQ(got.blocked[i].buffer, golden.blocked[i].buffer);
      EXPECT_EQ(got.blocked[i].channel, golden.blocked[i].channel);
      EXPECT_EQ(got.blocked[i].occupancy, golden.blocked[i].occupancy);
      EXPECT_EQ(got.blocked[i].waiting_for, golden.blocked[i].waiting_for);
      EXPECT_EQ(got.blocked[i].blocked_since, golden.blocked[i].blocked_since);
      EXPECT_EQ(got.blocked[i].on_cycle, golden.blocked[i].on_cycle);
    }
    EXPECT_EQ(got.wait_cycle, golden.wait_cycle);
  }
}

}  // namespace
}  // namespace nbclos
