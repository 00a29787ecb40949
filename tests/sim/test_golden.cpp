/// \file test_golden.cpp
/// \brief Bit-reproducibility contract of the overhauled cycle kernel.
///
/// The expected values were captured from the pre-overhaul engine (full
/// per-cycle channel scans, per-channel deques, end-of-run latency sort)
/// on fixed seeds, printed as hexfloats.  The incremental engine —
/// active-channel lists, flat ring queues, streaming histogram, running
/// queue-depth sum — must reproduce every field exactly: integer fields
/// equal, doubles bit-identical, and quantiles in the same histogram
/// bucket (bucket width is 1 cycle at these run lengths, so "same
/// bucket" means exactly equal too).
#include <gtest/gtest.h>

#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"

namespace {

using namespace nbclos;
using namespace nbclos::sim;

struct Golden {
  double offered_load;
  double accepted_throughput;
  double mean_latency;
  double p99_latency;
  std::uint64_t injected_packets;
  std::uint64_t delivered_packets;
  std::uint64_t dropped_packets;
  double mean_switch_queue_depth;
  double min_flow_throughput;
  double max_flow_throughput;
};

SimConfig golden_config(double rate) {
  SimConfig c;
  c.injection_rate = rate;
  c.warmup_cycles = 500;
  c.measure_cycles = 3000;
  c.queue_capacity = 8;
  c.seed = 12345;
  return c;
}

void expect_matches(const SimResult& r, const Golden& g) {
  EXPECT_EQ(r.offered_load, g.offered_load);
  EXPECT_EQ(r.accepted_throughput, g.accepted_throughput);
  EXPECT_EQ(r.mean_latency, g.mean_latency);
  // 3500 total cycles < 4096 histogram buckets, so the bucket width is
  // one cycle and the streaming p99 must equal the old sort-based p99.
  EXPECT_EQ(r.latency_bucket_width, 1.0);
  EXPECT_EQ(r.p99_latency, g.p99_latency);
  EXPECT_EQ(r.injected_packets, g.injected_packets);
  EXPECT_EQ(r.delivered_packets, g.delivered_packets);
  EXPECT_EQ(r.dropped_packets, g.dropped_packets);
  EXPECT_EQ(r.mean_switch_queue_depth, g.mean_switch_queue_depth);
  EXPECT_EQ(r.min_flow_throughput, g.min_flow_throughput);
  EXPECT_EQ(r.max_flow_throughput, g.max_flow_throughput);
}

class GoldenSim : public ::testing::Test {
 protected:
  GoldenSim()
      : ft(FtreeParams{4, 16, 8}), net(build_network(ft)), yuan(ft),
        traffic(TrafficPattern::permutation(
            shift_permutation(ft.leaf_count(), 5), ft.leaf_count())) {}

  FoldedClos ft;
  Network net;
  YuanNonblockingRouting yuan;
  TrafficPattern traffic;
};

TEST_F(GoldenSim, TableRoutingLowLoad) {
  FtreeOracle oracle(ft, UplinkPolicy::kTable, &yuan);
  PacketSim sim(net, oracle, traffic, golden_config(0.1));
  expect_matches(sim.run(),
                 {0x1.999999999999ap-4, 0x1.9c3ece2a53491p-4, 0x1.4p+2,
                  0x1.4p+2, 11182, 11167, 0, 0x0p+0, 0x1.6f46508dfea28p-4,
                  0x1.d194237fa89e6p-4});
}

TEST_F(GoldenSim, RandomSpreadingHighLoad) {
  FtreeOracle oracle(ft, UplinkPolicy::kRandom, nullptr, 77);
  PacketSim sim(net, oracle, traffic, golden_config(0.7));
  expect_matches(sim.run(),
                 {0x1.6666666666666p-1, 0x1.6713cc1e098ebp-1,
                  0x1.530ce191787fcp+2, 0x1.cp+2, 78424, 78307, 0,
                  0x1.7c39f36899873p-6, 0x1.6098ead65b7a3p-1,
                  0x1.738a94d242e6cp-1});
}

TEST_F(GoldenSim, DModKNearSaturation) {
  FtreeOracle oracle(ft, UplinkPolicy::kDModK);
  PacketSim sim(net, oracle, traffic, golden_config(0.9));
  expect_matches(sim.run(),
                 {0x1.ccccccccccccdp-1, 0x1.ccccccccccccdp-1, 0x1.4p+2,
                  0x1.4p+2, 100769, 100627, 0, 0x0p+0, 0x1.c5cd7b900aec3p-1,
                  0x1.d29a485cd7b9p-1});
}

TEST_F(GoldenSim, FaultedFtreeOracleWithMidRunEvents) {
  fault::DegradedView view(net);
  FtreeOracle oracle(ft, UplinkPolicy::kTable, &yuan, 7, &view);
  std::vector<fault::FaultEvent> events{
      {600, fault::FaultAction::kFailChannel,
       ft.up_link(BottomId{0}, TopId{3}).value},
      {600, fault::FaultAction::kFailChannel,
       ft.down_link(TopId{3}, BottomId{0}).value},
      {1200, fault::FaultAction::kFailVertex, 32 + 8 + 5},  // a top switch
      {2000, fault::FaultAction::kRecoverChannel,
       ft.up_link(BottomId{0}, TopId{3}).value},
  };
  PacketSim sim(net, oracle, traffic, golden_config(0.5), &view, events);
  expect_matches(sim.run(),
                 {0x1p-1, 0x1.ffa06d3a06d3ap-2, 0x1.4p+2, 0x1.4p+2, 55805,
                  55727, 0, 0x0p+0, 0x1.ee402bb0cf87ep-2,
                  0x1.08b4395810625p-1});
}

TEST_F(GoldenSim, FaultObliviousOracleDropsAndPurges) {
  // Fault-oblivious routing + mid-run channel/switch death at high load:
  // exercises the drop-on-dead-pick and queue-purge paths.
  fault::DegradedView view(net);
  FtreeOracle oracle(ft, UplinkPolicy::kDModK);
  std::vector<fault::FaultEvent> events{
      {700, fault::FaultAction::kFailChannel,
       ft.up_link(BottomId{2}, TopId{1}).value},
      {900, fault::FaultAction::kFailVertex, 32 + 3},  // a bottom switch
      {1800, fault::FaultAction::kRecoverVertex, 32 + 3},
  };
  PacketSim sim(net, oracle, traffic, golden_config(0.9), &view, events);
  expect_matches(sim.run(),
                 {0x1.ccccccccccccdp-1, 0x1.aa1e098ead65bp-1, 0x1.4p+2,
                  0x1.4p+2, 100769, 94124, 6503, 0x0p+0,
                  0x1.3ced916872b02p-1, 0x1.d1eb851eb851fp-1});
}

TEST_F(GoldenSim, LeastQueueMultiFlitPackets) {
  auto c = golden_config(0.6);
  c.packet_size = 4;
  FtreeOracle oracle(ft, UplinkPolicy::kLeastQueue);
  PacketSim sim(net, oracle, traffic, c);
  expect_matches(sim.run(),
                 {0x1.3333333333333p-1, 0x1.370fb38a94d24p-1,
                  0x1.03ee30800244cp+5, 0x1.0cp+6, 16890, 16727, 0,
                  0x1.c0091a2b3c4cfp-3, 0x1.189374bc6a7fp-1,
                  0x1.5555555555555p-1});
}

TEST(GoldenCrossbar, UniformTraffic) {
  const auto net = build_crossbar(8);
  CrossbarOracle oracle(8);
  const auto traffic = TrafficPattern::uniform(8);
  PacketSim sim(net, oracle, traffic, golden_config(0.5));
  expect_matches(sim.run(),
                 {0x1p-1, 0x1.0057619f0fb39p-1, 0x1.b6e7847a7f722p+1,
                  0x1.8p+2, 13946, 13931, 0, 0x1.b83c131d5acb8p-3,
                  0x1.ef9db22d0e56p-2, 0x1.067c3ece2a535p-1});
}

/// Two runs of the same config must be identical — the simulator owns all
/// of its state, so nothing leaks between constructions.
TEST_F(GoldenSim, RepeatedRunsAreIdentical) {
  const auto run_once = [&] {
    FtreeOracle oracle(ft, UplinkPolicy::kRandom, nullptr, 9);
    PacketSim sim(net, oracle, traffic, golden_config(0.8));
    return sim.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.p999_latency, b.p999_latency);
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.mean_switch_queue_depth, b.mean_switch_queue_depth);
}

}  // namespace
