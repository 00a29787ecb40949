/// Cross-module scenarios: each test strings several subsystems together
/// the way a user of the library would, checking the paper's story end
/// to end rather than module by module.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "nbclos/adaptive/router.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/analysis/collectives.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/circuit/clos_switch.hpp"
#include "nbclos/core/fabric.hpp"
#include "nbclos/core/multilevel.hpp"
#include "nbclos/routing/edge_coloring.hpp"
#include "nbclos/routing/infiniband.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/topology/dot.hpp"

namespace nbclos {
namespace {

TEST(Integration, CentralizedUsesFewerTopsThanDistributedNeedsButOnlyWithGlobalKnowledge) {
  // The paper's central trade-off in one test: on the same topology and
  // permutation, the centralized router realizes the pattern with tops
  // < n^2 (indeed <= n distinct tops), while the Theorem 3 scheme uses
  // its fixed source/destination-indexed spread — both contention-free.
  const FoldedClos ft(FtreeParams{3, 9, 7});
  const CentralizedRearrangeableRouter central(ft);
  const YuanNonblockingRouting yuan(ft);
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pattern = random_permutation(ft.leaf_count(), rng);
    const auto central_paths = central.route(pattern);
    const auto yuan_paths = yuan.route_all(pattern);
    EXPECT_FALSE(has_contention(ft, central_paths));
    EXPECT_FALSE(has_contention(ft, yuan_paths));
    std::set<std::uint32_t> central_tops;
    for (const auto& p : central_paths) {
      if (!p.direct) central_tops.insert(p.top.value);
    }
    EXPECT_LE(central_tops.size(), ft.n());  // Benes: m = n suffices
  }
}

TEST(Integration, AdaptiveScheduleDrivesTheSimulatorAtFullLoad) {
  // NONBLOCKINGADAPTIVE output -> routing table -> packet simulator:
  // the scheduled permutation sustains load 1.0.
  const adaptive::AdaptiveParams params{3, 9, 2};
  const FoldedClos ft(
      FtreeParams{3, params.worst_case_top_switches(), 9});
  const adaptive::NonblockingAdaptiveRouter router(params);
  const auto pattern = shift_permutation(ft.leaf_count(), 4);
  const auto schedule = router.route(pattern);
  const auto table =
      RoutingTable::from_paths(ft, schedule.to_paths(ft));

  const auto net = build_network(ft);
  sim::FtreeOracle oracle(ft, sim::UplinkPolicy::kTable, &table);
  const auto traffic =
      sim::TrafficPattern::permutation(pattern, ft.leaf_count());
  sim::SimConfig config;
  config.injection_rate = 1.0;
  config.warmup_cycles = 800;
  config.measure_cycles = 4000;
  sim::PacketSim simulator(net, oracle, traffic, config);
  const auto result = simulator.run();
  EXPECT_GT(result.accepted_throughput, 0.97);
  EXPECT_GT(result.min_flow_throughput, 0.9);
}

TEST(Integration, InfinibandForwardingSustainsAllToAllPhases) {
  // LFT-based forwarding (pure destination routing with multiple LIDs)
  // runs every all-to-all phase at full load in the simulator.
  const FoldedClos ft(FtreeParams{2, 4, 6});
  const InfinibandFabric ib(ft);
  const auto net = build_network(ft);
  const routing::ChannelRouteCache cache(
      net, [&ib](SDPair sd) { return ib.forward_path(sd); });
  sim::NextHopOracle oracle(cache);
  for (const auto& phase : ring_exchange_phases(ft.leaf_count())) {
    const auto traffic =
        sim::TrafficPattern::permutation(phase, ft.leaf_count());
    sim::SimConfig config;
    config.injection_rate = 1.0;
    config.warmup_cycles = 500;
    config.measure_cycles = 2500;
    sim::PacketSim simulator(net, oracle, traffic, config);
    EXPECT_GT(simulator.run().accepted_throughput, 0.97);
  }
}

TEST(Integration, CircuitAndPacketWorldsDisagreeAtMEqualsN) {
  // Same Clos(n, n, r) budget: with a centralized circuit controller and
  // rearrangement it is nonblocking; as a packet fabric with distributed
  // static routing it is provably blocking (Lemma 1 audit).
  constexpr std::uint32_t kN = 3;
  constexpr std::uint32_t kR = 6;
  circuit::ClosCircuitSwitch clos(kN, kN, kR);
  Xoshiro256 rng(4);
  const auto churn = circuit::run_churn(
      clos, circuit::FitStrategy::kFirstFit, 8000, 1.0, true, rng);
  EXPECT_EQ(churn.blocked, 0U);

  const FoldedClos packet_world(FtreeParams{kN, kN, kR});
  const DModKRouting dmodk(packet_world);
  EXPECT_FALSE(is_nonblocking_single_path(dmodk));
}

TEST(Integration, FabricFacadeEndToEnd) {
  // The one-object workflow of README's quickstart.
  const NonblockingFabric fabric(3);
  EXPECT_TRUE(fabric.certify());
  const auto verdict = fabric.verify_random(50, 7);
  EXPECT_TRUE(verdict.nonblocking);
  // All-to-all at full bandwidth, phase by phase.
  for (const auto& phase : all_to_all_phases(fabric.port_count())) {
    EXPECT_FALSE(
        has_contention(fabric.topology(), fabric.route_pattern(phase)));
  }
}

TEST(Integration, MultiLevelFabricExportsValidDot) {
  const MultiLevelFabric fabric(2, 3);
  std::ostringstream os;
  write_dot(os, fabric.network());
  const auto out = os.str();
  EXPECT_NE(out.find("graph"), std::string::npos);
  // All 52 switches and 24 terminals present.
  std::size_t boxes = 0;
  std::size_t circles = 0;
  for (std::size_t pos = out.find("shape=box"); pos != std::string::npos;
       pos = out.find("shape=box", pos + 1)) {
    ++boxes;
  }
  for (std::size_t pos = out.find("shape=circle"); pos != std::string::npos;
       pos = out.find("shape=circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(boxes, 24U);
  EXPECT_EQ(circles, 52U);
}

TEST(Integration, DesignNumbersAreInternallyConsistentAcrossModules) {
  // designer formulas == fabric facade == multilevel construction.
  for (std::uint32_t n = 2; n <= 4; ++n) {
    const auto design = two_level_design(n);
    const NonblockingFabric fabric(n);
    const MultiLevelFabric built(n, 2);
    EXPECT_EQ(design.ports, fabric.port_count());
    EXPECT_EQ(design.ports, built.port_count());
    EXPECT_EQ(design.switches, fabric.topology().switch_count());
    EXPECT_EQ(design.switches, built.switch_count());
  }
}

/// Whole-pipeline property sweep: for each (n, r) shape, the Theorem 3
/// routing certifies, the adaptive router schedules contention-free, and
/// the centralized router realizes the same pattern — three independent
/// implementations agreeing that the permutation is realizable.
class PipelineSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(PipelineSweep, AllThreeRoutingWorldsAgree) {
  const auto [n, r] = GetParam();
  const FoldedClos yuan_ft(FtreeParams{n, n * n, r});
  const YuanNonblockingRouting yuan(yuan_ft);
  EXPECT_TRUE(is_nonblocking_single_path(yuan));

  const adaptive::AdaptiveParams params{n, r, min_digit_width(r, n)};
  const adaptive::NonblockingAdaptiveRouter adaptive_router(params);
  const FoldedClos adaptive_ft(
      FtreeParams{n, params.worst_case_top_switches(), r});

  const FoldedClos central_ft(FtreeParams{n, n, r});
  const CentralizedRearrangeableRouter central(central_ft);

  Xoshiro256 rng(n * 131 + r);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pattern = random_permutation(n * r, rng);
    EXPECT_FALSE(has_contention(yuan_ft, yuan.route_all(pattern)));
    const auto schedule = adaptive_router.route(pattern);
    EXPECT_FALSE(
        has_contention(adaptive_ft, schedule.to_paths(adaptive_ft)));
    EXPECT_FALSE(has_contention(central_ft, central.route(pattern)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineSweep,
    ::testing::Values(std::pair{2U, 5U}, std::pair{2U, 12U},
                      std::pair{3U, 7U}, std::pair{3U, 12U},
                      std::pair{4U, 9U}, std::pair{4U, 20U},
                      std::pair{5U, 11U}, std::pair{5U, 30U},
                      std::pair{6U, 13U}, std::pair{6U, 42U}));

}  // namespace
}  // namespace nbclos
