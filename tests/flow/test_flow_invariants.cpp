/// \file test_flow_invariants.cpp
/// \brief Conservation and determinism invariants: the credit identity
///        (credits + occupancy + in-flight + pending returns == capacity
///        for every switch buffer), thread-count independence of the
///        parallel sweep drivers at 1, 2, and 4 worker threads, and
///        route-provider independence: a pure O(1) NextHop router and
///        the route cache of the same routing give identical runs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/buffer_margin.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos {
namespace {

using flow::Backpressure;
using flow::FlowConfig;
using flow::FlowResult;
using flow::FlowSim;
using flow::Switching;

void expect_identical(const FlowResult& a, const FlowResult& b) {
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.p999_latency, b.p999_latency);
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
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
}

class FlowInvariants : public ::testing::Test {
 protected:
  FlowInvariants()
      : ft(FtreeParams{2, 4, 3}),
        net(build_network(ft)),
        yuan(ft),
        cache(routing::ChannelRouteCache::materialize(net, yuan)),
        traffic(sim::TrafficPattern::permutation(
            shift_permutation(ft.leaf_count(), 1), ft.leaf_count())) {}

  /// Stress configuration: tight buffers at full load, so the credit
  /// machinery (delayed returns, stalls, episodes) is fully exercised.
  FlowConfig stressed_config() const {
    FlowConfig config;
    config.injection_rate = 1.0;
    config.packet_flits = 4;
    config.buffer_flits = 2;
    config.credit_delay = 3;
    config.warmup_cycles = 300;
    config.measure_cycles = 1700;
    config.seed = 77;
    return config;
  }

  FoldedClos ft;
  Network net;
  YuanNonblockingRouting yuan;
  std::shared_ptr<const routing::ChannelRouteCache> cache;
  sim::TrafficPattern traffic;
};

// --- credit conservation --------------------------------------------------

TEST_F(FlowInvariants, CreditConservationHoldsBeforeAndAfterTheRun) {
  FlowSim sim(cache, traffic, stressed_config());
  // Pristine state: every buffer empty, every counter at capacity.
  EXPECT_TRUE(sim.credit_conservation_holds());
  const auto result = sim.run();
  // The run also audits internally at every watchdog epoch; this is the
  // external end-state check over wires + FIFOs + the delay line.
  EXPECT_TRUE(sim.credit_conservation_holds());
  EXPECT_GT(result.delivered_packets, 0U);
  EXPECT_FALSE(result.deadlocked);
}

TEST_F(FlowInvariants, CreditConservationHoldsAcrossDelaysAndDepths) {
  for (const std::uint32_t delay : {1U, 2U, 5U}) {
    for (const std::uint32_t depth : {1U, 4U, 16U}) {
      FlowConfig config = stressed_config();
      config.credit_delay = delay;
      config.buffer_flits = depth;
      FlowSim sim(cache, traffic, config);
      (void)sim.run();
      EXPECT_TRUE(sim.credit_conservation_holds())
          << "delay " << delay << " depth " << depth;
    }
  }
}

TEST_F(FlowInvariants, CreditAuditRequiresCreditMode) {
  FlowConfig config = stressed_config();
  config.backpressure = Backpressure::kOnOff;
  FlowSim sim(cache, traffic, config);
  EXPECT_THROW((void)sim.credit_conservation_holds(), precondition_error);
}

// --- thread-count independence -------------------------------------------

TEST_F(FlowInvariants, LoadSweepIsThreadCountIndependent) {
  const std::vector<double> rates{0.2, 0.6, 1.0};
  const FlowConfig base = stressed_config();
  const auto serial = flow_load_sweep(cache, traffic, base, rates, nullptr);
  ASSERT_EQ(serial.size(), rates.size());
  for (const std::size_t threads : {1U, 2U, 4U}) {
    ThreadPool pool(threads);
    const auto parallel =
        flow_load_sweep(cache, traffic, base, rates, &pool);
    ASSERT_EQ(parallel.size(), rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << " rate " << rates[i]);
      expect_identical(parallel[i], serial[i]);
    }
  }
}

TEST_F(FlowInvariants, BufferMarginSweepIsThreadCountIndependent) {
  analysis::BufferMarginConfig config;
  config.buffer_sizes = {1, 2, 4, 8};
  config.probe_load = 0.9;
  config.base = stressed_config();
  const auto serial =
      analysis::buffer_margin_sweep(cache, traffic, config, nullptr);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    ThreadPool pool(threads);
    const auto parallel =
        analysis::buffer_margin_sweep(cache, traffic, config, &pool);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    EXPECT_EQ(parallel.min_flits_nonblocking, serial.min_flits_nonblocking);
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads << " point "
                                        << i);
      EXPECT_EQ(parallel.points[i].buffer_flits, serial.points[i].buffer_flits);
      EXPECT_EQ(parallel.points[i].feasible, serial.points[i].feasible);
      EXPECT_EQ(parallel.points[i].sustained, serial.points[i].sustained);
      EXPECT_EQ(parallel.points[i].accepted_throughput,
                serial.points[i].accepted_throughput);
      EXPECT_EQ(parallel.points[i].deadlocked, serial.points[i].deadlocked);
      EXPECT_EQ(parallel.points[i].credit_stall_cycles,
                serial.points[i].credit_stall_cycles);
      EXPECT_EQ(parallel.points[i].peak_buffer_flits,
                serial.points[i].peak_buffer_flits);
    }
  }
}

TEST_F(FlowInvariants, SweepMatchesIndividuallyConstructedRuns) {
  // The sweep must be exactly "one fresh FlowSim per rate" — no hidden
  // state leaking across runs.
  const std::vector<double> rates{0.3, 0.8};
  const FlowConfig base = stressed_config();
  const auto swept = flow_load_sweep(cache, traffic, base, rates, nullptr);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    FlowConfig config = base;
    config.injection_rate = rates[i];
    FlowSim sim(cache, traffic, config);
    const auto direct = sim.run();
    SCOPED_TRACE(::testing::Message() << "rate " << rates[i]);
    expect_identical(swept[i], direct);
  }
}

// --- pure next-hop routers -----------------------------------------------

/// A small credit-backpressured wormhole run at moderate load.
FlowConfig pure_config() {
  FlowConfig config;
  config.injection_rate = 0.3;
  config.warmup_cycles = 200;
  config.measure_cycles = 800;
  config.seed = 7;
  config.counter_injection = true;
  return config;
}

TEST(PureNextHopFlow, MatchesRouteCacheOnKaryTree) {
  // The same flow run through the O(T^2) table and the O(1) dmodk
  // arithmetic: identical routes must mean identical results, which is
  // what lets the scale bench drop the table entirely.
  const Network net = build_kary_ntree(3, 3);
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  const auto pure = std::make_shared<const sim::KaryDmodkRouter>(net, 3, 3);
  const auto cache = std::make_shared<const routing::ChannelRouteCache>(
      net, [&](SDPair sd) {
        std::vector<std::uint32_t> path;
        routing::walk_path(*pure, sd.src.value, sd.dst.value, path);
        return path;
      });
  EXPECT_EQ(pure->bytes(), 0U);
  const auto traffic = sim::TrafficPattern::permutation(
      shift_permutation(terminals, 4), terminals);

  FlowSim cached(cache, traffic, pure_config());
  FlowSim arith(pure, traffic, pure_config());
  expect_identical(arith.run(), cached.run());
}

TEST(PureNextHopFlow, TopChoiceDModKMatchesDModKRouteCache) {
  // TopChoiceNextHop goes into FlowSim as is and walks the d-mod-k paths
  // the materialized DModKRouting cache stores.
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const Network net = build_network(ft);
  const auto dmodk = std::make_shared<const DModKRouting>(ft);
  const auto cache = routing::ChannelRouteCache::materialize(net, *dmodk);
  const auto pure =
      std::make_shared<const routing::TopChoiceNextHop>(dmodk, net);
  EXPECT_EQ(pure->bytes(), 0U);
  const auto traffic = sim::TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 5), ft.leaf_count());

  FlowSim cached(cache, traffic, pure_config());
  FlowSim arith(pure, traffic, pure_config());
  const auto result = arith.run();
  EXPECT_GT(result.delivered_packets, 0U);
  expect_identical(result, cached.run());
}

}  // namespace
}  // namespace nbclos
