/// Edge-case hardening across modules: boundary parameters, degenerate
/// patterns, and overflow guards that the main suites don't reach.
#include <gtest/gtest.h>

#include "nbclos/adaptive/router.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/core/multilevel.hpp"
#include "nbclos/routing/multipath.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"

namespace nbclos {
namespace {

TEST(EdgeCases, FoldedClosRejectsIdSpaceOverflow) {
  // 2*r*n + 2*r*m must fit 32 bits; 70000 * 70000 links overflow.
  EXPECT_THROW(FoldedClos(FtreeParams{1, 70000, 70000}), precondition_error);
}

TEST(EdgeCases, SmallestLegalFtree) {
  const FoldedClos ft(FtreeParams{1, 1, 2});
  ft.validate();
  EXPECT_EQ(ft.leaf_count(), 2U);
  EXPECT_EQ(ft.cross_pair_count(), 2U);
  // With n = 1 the single routing choice is trivially nonblocking.
  const YuanNonblockingRouting routing(ft);
  EXPECT_TRUE(is_nonblocking_single_path(routing));
}

TEST(EdgeCases, PartialPermutationsScheduleCorrectly) {
  // Only two of sixteen switches have traffic; everything else idle.
  const adaptive::AdaptiveParams params{4, 16, 2};
  const adaptive::NonblockingAdaptiveRouter router(params);
  const Permutation sparse{{LeafId{0}, LeafId{9}}, {LeafId{40}, LeafId{2}}};
  const auto schedule = router.route(sparse);
  EXPECT_EQ(schedule.configurations_used, 1U);
  const FoldedClos ft(FtreeParams{4, params.switches_per_config(), 16});
  EXPECT_FALSE(has_contention(ft, schedule.to_paths(ft)));
}

TEST(EdgeCases, EmptyPermutationEverywhere) {
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const YuanNonblockingRouting routing(ft);
  EXPECT_TRUE(routing.route_all({}).empty());
  LinkLoadMap map(ft);
  EXPECT_TRUE(map.contention_free());
  EXPECT_EQ(map.max_load(), 0U);
}

TEST(EdgeCases, MultipathRandomIsSeedReproducible) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  MultipathObliviousRouting a(ft, 3, SpreadPolicy::kRandom, 99);
  MultipathObliviousRouting b(ft, 3, SpreadPolicy::kRandom, 99);
  const SDPair sd{LeafId{0}, LeafId{5}};
  for (std::uint64_t p = 0; p < 50; ++p) {
    EXPECT_EQ(a.path_for_packet(sd, p).top, b.path_for_packet(sd, p).top);
  }
}

TEST(EdgeCases, SimulatorQueueCapacityOneStillDelivers) {
  // The tightest possible buffering: backpressure everywhere, but no
  // deadlock and no loss (store-and-forward on a tree is cycle-free).
  const FoldedClos ft(FtreeParams{2, 4, 5});
  const auto net = build_network(ft);
  const YuanNonblockingRouting routing(ft);
  sim::FtreeOracle oracle(ft, sim::UplinkPolicy::kTable, &routing);
  const auto pattern = shift_permutation(ft.leaf_count(), 3);
  const auto traffic =
      sim::TrafficPattern::permutation(pattern, ft.leaf_count());
  sim::SimConfig config;
  config.injection_rate = 0.5;
  config.queue_capacity = 1;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  sim::PacketSim simulator(net, oracle, traffic, config);
  const auto result = simulator.run();
  EXPECT_GT(result.accepted_throughput, 0.45);
}

TEST(EdgeCases, SimulatorMultiFlitPacketsOnContendedLink) {
  // Packet size 4 with two flows on one uplink: throughput halves and
  // serialization shows up in latency, but nothing is lost or stuck.
  const FoldedClos ft(FtreeParams{2, 1, 2});  // single top switch
  const auto net = build_network(ft);
  sim::FtreeOracle oracle(ft, sim::UplinkPolicy::kDModK);
  const Permutation pattern{{LeafId{0}, LeafId{2}}, {LeafId{1}, LeafId{3}}};
  const auto traffic = sim::TrafficPattern::permutation(pattern, 4);
  sim::SimConfig config;
  config.injection_rate = 1.0;
  config.packet_size = 4;
  config.warmup_cycles = 500;
  config.measure_cycles = 4000;
  sim::PacketSim simulator(net, oracle, traffic, config);
  const auto result = simulator.run();
  // Two flows share the single uplink: ~0.5 each; normalized over the 4
  // terminals (two silent) that is ~0.25.
  EXPECT_NEAR(result.accepted_throughput, 0.25, 0.04);
  EXPECT_GE(result.mean_latency, 12.0);  // >= 3 hops * 4 flits
}

TEST(EdgeCases, MultiLevelSmallestInstanceIsTheTwoLevelFabric) {
  const MultiLevelFabric fabric(2, 2);
  EXPECT_EQ(fabric.port_count(), 12U);
  EXPECT_EQ(fabric.switch_count(), 10U);
  // Route through a level-1 block is at most 4 channels at depth 2.
  for (std::uint32_t d = 1; d < fabric.port_count(); ++d) {
    EXPECT_LE(fabric.route({LeafId{0}, LeafId{d}}).size(), 4U);
  }
}

TEST(EdgeCases, ReverseOfTwoLeavesIsASwap) {
  const auto p = reverse_permutation(2);
  ASSERT_EQ(p.size(), 2U);
  EXPECT_EQ(p[0].dst.value, 1U);
  EXPECT_EQ(p[1].dst.value, 0U);
}

TEST(EdgeCases, AdaptiveRouterWithRLessThanN) {
  // r < n: c = 1, single digit; still schedules correctly.
  const adaptive::AdaptiveParams params{5, 3, 1};
  const adaptive::NonblockingAdaptiveRouter router(params);
  Xoshiro256 rng(9);
  const auto pattern = random_permutation(15, rng);
  const auto schedule = router.route(pattern);
  const FoldedClos ft(
      FtreeParams{5, params.worst_case_top_switches(), 3});
  EXPECT_FALSE(has_contention(ft, schedule.to_paths(ft)));
}

}  // namespace
}  // namespace nbclos
