/// \file test_flow_golden.cpp
/// \brief Cross-engine golden equivalence: in the ideal-switch regime
///        (single-flit packets, effectively-infinite buffers) FlowSim
///        must reproduce sim::PacketSim bit-identically.
///
/// Both engines drive the *same* shared routing::ChannelRouteCache and
/// consume identical RNG streams, so with 1-flit packets, 1024-flit
/// buffers, and a contention-free (Yuan nonblocking) routing every
/// mirrored result field — throughput, latency moments and quantiles,
/// packet counts, queue depth, fairness extremes — must be EXPECT_EQ
/// equal, doubles included.  Any divergence means the flit-level engine
/// has drifted from the validated packet-level baseline.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"

namespace nbclos {
namespace {

using flow::FlowConfig;
using flow::FlowResult;
using flow::FlowSim;
using sim::SimConfig;
using sim::SimResult;

void expect_equivalent(const FlowResult& f, const SimResult& s) {
  EXPECT_EQ(f.offered_load, s.offered_load);
  EXPECT_EQ(f.accepted_throughput, s.accepted_throughput);
  EXPECT_EQ(f.mean_latency, s.mean_latency);
  EXPECT_EQ(f.latency_bucket_width, s.latency_bucket_width);
  EXPECT_EQ(f.p50_latency, s.p50_latency);
  EXPECT_EQ(f.p99_latency, s.p99_latency);
  EXPECT_EQ(f.p999_latency, s.p999_latency);
  EXPECT_EQ(f.injected_packets, s.injected_packets);
  EXPECT_EQ(f.delivered_packets, s.delivered_packets);
  EXPECT_EQ(f.mean_switch_queue_depth, s.mean_switch_queue_depth);
  EXPECT_EQ(f.min_flow_throughput, s.min_flow_throughput);
  EXPECT_EQ(f.max_flow_throughput, s.max_flow_throughput);
}

class GoldenFlow : public ::testing::Test {
 protected:
  GoldenFlow()
      : ft(FtreeParams{4, 16, 8}),
        net(build_network(ft)),
        yuan(ft),
        cache(routing::ChannelRouteCache::materialize(net, yuan)),
        traffic(sim::TrafficPattern::permutation(
            shift_permutation(ft.leaf_count(), 5), ft.leaf_count())) {}

  /// One PacketSim + one FlowSim at the same rate over the shared cache,
  /// both in their documented ideal-reference configurations.
  void run_pair(double rate, SimResult& packet_result,
                FlowResult& flow_result) {
    SimConfig sc = SimConfig::ideal_reference(rate, kSeed);
    sc.warmup_cycles = kWarmup;
    sc.measure_cycles = kMeasure;
    sim::NextHopOracle oracle(*cache);
    sim::PacketSim psim(net, oracle, traffic, sc);
    packet_result = psim.run();

    FlowConfig fc = FlowConfig::ideal_reference(rate, kSeed);
    fc.warmup_cycles = kWarmup;
    fc.measure_cycles = kMeasure;
    FlowSim fsim(cache, traffic, fc);
    flow_result = fsim.run();
  }

  static constexpr std::uint64_t kSeed = 12345;
  static constexpr std::uint64_t kWarmup = 500;
  static constexpr std::uint64_t kMeasure = 3000;

  FoldedClos ft;
  Network net;
  YuanNonblockingRouting yuan;
  std::shared_ptr<const routing::ChannelRouteCache> cache;
  sim::TrafficPattern traffic;
};

TEST_F(GoldenFlow, MatchesPacketSimAtLowLoad) {
  SimResult s;
  FlowResult f;
  run_pair(0.1, s, f);
  expect_equivalent(f, s);
  EXPECT_GT(f.delivered_packets, 0U);
}

TEST_F(GoldenFlow, MatchesPacketSimAtMidLoad) {
  SimResult s;
  FlowResult f;
  run_pair(0.5, s, f);
  expect_equivalent(f, s);
}

TEST_F(GoldenFlow, MatchesPacketSimAtHighLoad) {
  SimResult s;
  FlowResult f;
  run_pair(0.9, s, f);
  expect_equivalent(f, s);
}

TEST_F(GoldenFlow, MatchesPacketSimAtFullLoad) {
  // Load 1.0 on the nonblocking permutation: the regime Theorem 3
  // certifies.  Neither engine may saturate, and they must agree.
  SimResult s;
  FlowResult f;
  run_pair(1.0, s, f);
  expect_equivalent(f, s);
  EXPECT_FALSE(f.saturated());
  EXPECT_FALSE(s.saturated());
}

TEST_F(GoldenFlow, IdealRegimeNeverEngagesBackpressure) {
  SimResult s;
  FlowResult f;
  run_pair(1.0, s, f);
  // Contention-free routing + effectively infinite buffers: no stall of
  // either kind, and no switch FIFO ever comes near its 1024 capacity.
  EXPECT_EQ(f.credit_stall_cycles, 0U);
  EXPECT_EQ(f.vc_stall_cycles, 0U);
  EXPECT_LT(f.peak_buffer_flits,
            FlowConfig::kEffectivelyInfiniteBufferFlits / 2);
  EXPECT_FALSE(f.deadlocked);
}

TEST_F(GoldenFlow, RepeatedRunsAreBitIdentical) {
  FlowConfig fc = FlowConfig::ideal_reference(0.7, kSeed);
  fc.warmup_cycles = kWarmup;
  fc.measure_cycles = kMeasure;
  FlowSim a(cache, traffic, fc);
  FlowSim b(cache, traffic, fc);
  const FlowResult ra = a.run();
  const FlowResult rb = b.run();
  EXPECT_EQ(ra.accepted_throughput, rb.accepted_throughput);
  EXPECT_EQ(ra.mean_latency, rb.mean_latency);
  EXPECT_EQ(ra.p99_latency, rb.p99_latency);
  EXPECT_EQ(ra.injected_packets, rb.injected_packets);
  EXPECT_EQ(ra.delivered_packets, rb.delivered_packets);
  EXPECT_EQ(ra.mean_switch_queue_depth, rb.mean_switch_queue_depth);
  EXPECT_EQ(ra.credit_stall_cycles, rb.credit_stall_cycles);
  EXPECT_EQ(ra.peak_buffer_flits, rb.peak_buffer_flits);
  EXPECT_EQ(a.link_busy_flits(), b.link_busy_flits());
}

TEST_F(GoldenFlow, IdealReferenceFactoriesStayInSync) {
  // The golden contract depends on both factories describing the same
  // regime; pin the fields so a drive-by edit to one side fails loudly.
  const SimConfig sc = SimConfig::ideal_reference(0.3, 7);
  const FlowConfig fc = FlowConfig::ideal_reference(0.3, 7);
  EXPECT_TRUE(sc.ideal_switch_regime());
  EXPECT_TRUE(fc.ideal_switch_regime());
  EXPECT_EQ(sc.packet_size, 1U);
  EXPECT_EQ(fc.packet_flits, 1U);
  EXPECT_EQ(sc.queue_capacity, SimConfig::kEffectivelyInfiniteQueueCapacity);
  EXPECT_EQ(fc.buffer_flits, FlowConfig::kEffectivelyInfiniteBufferFlits);
  EXPECT_EQ(sc.injection_rate, fc.injection_rate);
  EXPECT_EQ(sc.seed, fc.seed);
  EXPECT_TRUE(sc.counter_injection);
  EXPECT_TRUE(fc.counter_injection);
}

}  // namespace
}  // namespace nbclos
