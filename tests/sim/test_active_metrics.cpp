/// Pinned active-channel telemetry of the packet engines.
///
/// The `sim.active.flying_channel_cycles` and
/// `sim.active.sendable_channel_cycles` counters, and the
/// `sim.active.flying` / `sim.active.sendable` flight-recorder series of
/// PacketSim and ShardedSim, count the channels on the engines' active
/// sets once per cycle.  The expected values are fixed constants for one
/// seeded run of each engine (backpressure, multi-flit packets and a
/// fault schedule included), so any change to how the engines keep their
/// active sets must reproduce these counts exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/sim/sharded.hpp"

namespace nbclos::sim {
namespace {

/// Order-sensitive digest of one recorder series.
struct SeriesDigest {
  std::size_t points = 0;
  std::int64_t sum = 0;           ///< sum of values
  std::int64_t weighted_sum = 0;  ///< sum of value * (index + 1)
};

SeriesDigest digest(const obs::FlightRecorder& recorder,
                    const std::string& name) {
  SeriesDigest d;
  for (const auto& series : recorder.merged()) {
    if (series.name != name) continue;
    d.points = series.points.size();
    for (std::size_t i = 0; i < series.points.size(); ++i) {
      d.sum += series.points[i].v;
      d.weighted_sum +=
          series.points[i].v * static_cast<std::int64_t>(i + 1);
    }
  }
  return d;
}

void expect_digest(const SeriesDigest& got, const SeriesDigest& expect,
                   const char* label) {
  EXPECT_EQ(got.points, expect.points) << label;
  EXPECT_EQ(got.sum, expect.sum) << label;
  EXPECT_EQ(got.weighted_sum, expect.weighted_sum) << label;
}

SimConfig pinned_config(bool counter_injection) {
  SimConfig config;
  config.injection_rate = 0.9;
  config.packet_size = 2;
  config.queue_capacity = 4;
  config.warmup_cycles = 300;
  config.measure_cycles = 1700;
  config.seed = 20261017;
  config.counter_injection = counter_injection;
  config.record_timeseries = true;
  config.record_cadence = 16;
  config.record_ring_capacity = 256;  // 125 samples: no downsampling
  return config;
}

/// One top switch dies in warmup and recovers mid-measurement, and an
/// up-link dies for good: purges hit both in-flight and queued packets.
std::vector<fault::FaultEvent> pinned_faults(const FoldedClos& ft) {
  return {
      {150, fault::FaultAction::kFailVertex,
       FtreeNetworkMap{ft.params()}.top(TopId{2})},
      {700, fault::FaultAction::kFailChannel,
       ft.up_link(BottomId{1}, TopId{0}).value},
      {1100, fault::FaultAction::kRecoverVertex,
       FtreeNetworkMap{ft.params()}.top(TopId{2})},
  };
}

TEST(ActiveMetrics, PacketSimCountersAndSeriesArePinned) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  obs::set_enabled(true);
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const Network net = build_network(ft);
  const auto traffic = TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 5), ft.leaf_count());
  FtreeOracle oracle(ft, UplinkPolicy::kDModK);
  fault::DegradedView view(net);
  auto& flying = obs::metrics().counter("sim.active.flying_channel_cycles");
  auto& sendable =
      obs::metrics().counter("sim.active.sendable_channel_cycles");
  const std::uint64_t flying_before = flying.value();
  const std::uint64_t sendable_before = sendable.value();
  PacketSim sim(net, oracle, traffic, pinned_config(false), &view,
                pinned_faults(ft));
  const auto result = sim.run();
  EXPECT_GT(result.dropped_packets, 0U);  // the schedule must bite
  const std::uint64_t flying_cycles = flying.value() - flying_before;
  const std::uint64_t sendable_cycles = sendable.value() - sendable_before;
  const auto fly = digest(sim.recorder(), "sim.active.flying");
  const auto send = digest(sim.recorder(), "sim.active.sendable");
  EXPECT_EQ(flying_cycles, 224211U);
  EXPECT_EQ(sendable_cycles, 51940U);
  expect_digest(fly, SeriesDigest{125, 13923, 893250}, "sim.active.flying");
  expect_digest(send, SeriesDigest{125, 3228, 203009}, "sim.active.sendable");
}

TEST(ActiveMetrics, ShardedSimSeriesArePinned) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  obs::set_enabled(true);
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const Network net = build_network(ft);
  const routing::TopChoiceNextHop router(
      std::make_shared<const DModKRouting>(ft), net);
  const auto traffic = TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 5), ft.leaf_count());
  const fault::DegradedView pristine(net);
  auto& flying = obs::metrics().counter("sim.active.flying_channel_cycles");
  auto& sendable =
      obs::metrics().counter("sim.active.sendable_channel_cycles");
  std::uint64_t flying_before = flying.value();
  std::uint64_t sendable_before = sendable.value();
  ShardedSim sim(router, traffic, pinned_config(true), 2, &pristine,
                 pinned_faults(ft));
  const auto result = sim.run();
  EXPECT_GT(result.dropped_packets, 0U);
  const std::uint64_t flying_cycles = flying.value() - flying_before;
  const std::uint64_t sendable_cycles = sendable.value() - sendable_before;
  const auto fly = digest(sim.recorder(), "sim.active.flying");
  const auto send = digest(sim.recorder(), "sim.active.sendable");
  expect_digest(fly, SeriesDigest{125, 13944, 893075}, "sim.active.flying");
  expect_digest(send, SeriesDigest{125, 3273, 208585}, "sim.active.sendable");
  // The active-channel counters partition additively across shards, so
  // the two-shard run counts what one shard counts.
  flying_before = flying.value();
  sendable_before = sendable.value();
  ShardedSim single(router, traffic, pinned_config(true), 1, &pristine,
                    pinned_faults(ft));
  (void)single.run();
  EXPECT_GT(flying_cycles, 0U);
  EXPECT_EQ(flying_cycles, flying.value() - flying_before);
  EXPECT_EQ(sendable_cycles, sendable.value() - sendable_before);
}

}  // namespace
}  // namespace nbclos::sim
