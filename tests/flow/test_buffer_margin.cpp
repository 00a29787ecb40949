/// \file test_buffer_margin.cpp
/// \brief analysis::buffer_margin_sweep — the minimum buffer depth at
///        which a routing sustains its offered load ("min flits per port
///        for nonblocking").  Checks input validation, infeasible-depth
///        handling, and the expected shape of the margin curve on a
///        contention-free Yuan routing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/buffer_margin.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

using analysis::BufferMarginConfig;
using analysis::buffer_margin_sweep;
using flow::FlowConfig;
using flow::Switching;

class BufferMargin : public ::testing::Test {
 protected:
  BufferMargin()
      : ft(FtreeParams{2, 4, 3}),
        net(build_network(ft)),
        yuan(ft),
        cache(routing::ChannelRouteCache::materialize(net, yuan)),
        traffic(sim::TrafficPattern::permutation(
            shift_permutation(ft.leaf_count(), 1), ft.leaf_count())) {}

  BufferMarginConfig margin_config() const {
    BufferMarginConfig config;
    config.buffer_sizes = {1, 2, 4, 8, 16};
    config.probe_load = 0.9;
    config.base.packet_flits = 4;
    config.base.warmup_cycles = 300;
    config.base.measure_cycles = 1700;
    config.base.seed = 31;
    return config;
  }

  FoldedClos ft;
  Network net;
  YuanNonblockingRouting yuan;
  std::shared_ptr<const routing::ChannelRouteCache> cache;
  sim::TrafficPattern traffic;
};

TEST_F(BufferMargin, RejectsMalformedSweeps) {
  BufferMarginConfig config = margin_config();
  config.buffer_sizes = {};
  EXPECT_THROW(buffer_margin_sweep(cache, traffic, config),
               precondition_error);
  config = margin_config();
  config.buffer_sizes = {4, 4, 8};  // not strictly ascending
  EXPECT_THROW(buffer_margin_sweep(cache, traffic, config),
               precondition_error);
  config = margin_config();
  config.probe_load = 0.0;
  EXPECT_THROW(buffer_margin_sweep(cache, traffic, config),
               precondition_error);
  config = margin_config();
  config.sustain_fraction = 1.5;
  EXPECT_THROW(buffer_margin_sweep(cache, traffic, config),
               precondition_error);
}

TEST_F(BufferMargin, FindsAFiniteMarginOnTheNonblockingRouting) {
  const auto result = buffer_margin_sweep(cache, traffic, margin_config());
  ASSERT_EQ(result.points.size(), 5U);
  // Contention-free routing with generous buffers must sustain the load:
  // the curve reaches "sustained" somewhere in the probed range.
  EXPECT_GT(result.min_flits_nonblocking, 0U);
  // And the reported margin is the first sustained point, with every
  // probed point keeping its configured depth.
  bool seen_min = false;
  for (const auto& point : result.points) {
    if (!seen_min && point.sustained) {
      EXPECT_EQ(point.buffer_flits, result.min_flits_nonblocking);
      seen_min = true;
    }
    EXPECT_TRUE(point.feasible);  // wormhole + credit: every depth runs
    EXPECT_FALSE(point.deadlocked);
    EXPECT_LE(point.peak_buffer_flits, point.buffer_flits);
  }
  EXPECT_TRUE(seen_min);
  // The deepest probe is comfortably past the margin.
  EXPECT_TRUE(result.points.back().sustained);
}

TEST_F(BufferMargin, ThroughputImprovesWithDepthUpToTheMargin) {
  const auto result = buffer_margin_sweep(cache, traffic, margin_config());
  // Deeper buffers never hurt on a contention-free routing: accepted
  // throughput is non-decreasing along the probed depths (within one
  // packet of slack the discrete simulator can introduce).
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_GE(result.points[i].accepted_throughput,
              result.points[i - 1].accepted_throughput - 0.02)
        << "depth " << result.points[i].buffer_flits;
  }
}

TEST_F(BufferMargin, MarksDepthsBelowTheVctFloorInfeasible) {
  BufferMarginConfig config = margin_config();
  config.base.switching = Switching::kVirtualCutThrough;
  config.base.packet_flits = 4;
  config.buffer_sizes = {1, 2, 4, 8};
  const auto result = buffer_margin_sweep(cache, traffic, config);
  ASSERT_EQ(result.points.size(), 4U);
  // Depths 1 and 2 cannot hold a whole 4-flit packet: recorded as
  // infeasible, never run, never sustained.
  EXPECT_FALSE(result.points[0].feasible);
  EXPECT_FALSE(result.points[0].sustained);
  EXPECT_FALSE(result.points[1].feasible);
  EXPECT_TRUE(result.points[2].feasible);
  EXPECT_TRUE(result.points[3].feasible);
  // The margin, if found, is at least the VCT floor.
  if (result.min_flits_nonblocking != 0) {
    EXPECT_GE(result.min_flits_nonblocking, config.base.packet_flits);
  }
}

TEST_F(BufferMargin, SingleFlitPacketsNeedOnlyShallowBuffers) {
  // In the near-ideal regime (1-flit packets) the nonblocking routing
  // sustains the probe with just a few flits per port — the cheap end of
  // the margin curve the bench sweeps report.
  BufferMarginConfig config = margin_config();
  config.base.packet_flits = 1;
  config.buffer_sizes = {1, 2, 4};
  const auto result = buffer_margin_sweep(cache, traffic, config);
  EXPECT_GT(result.min_flits_nonblocking, 0U);
  EXPECT_LE(result.min_flits_nonblocking, 4U);
}

TEST_F(BufferMargin, BisectionMatchesTheFullSweepAtEveryShardCount) {
  // Same grid, same probes: a run does not depend on the shard count, so
  // the serial sweep and the sharded bisection probe identical
  // simulations and the margin must agree — and the bisection must get
  // there in O(log N) probes at every shard count.
  BufferMarginConfig config = margin_config();
  const auto sweep = buffer_margin_sweep(cache, traffic, config);
  ASSERT_GT(sweep.min_flits_nonblocking, 0U);
  for (const std::uint32_t shards : {1U, 2U, 4U}) {
    const auto bisect =
        analysis::buffer_margin_bisect(cache, traffic, config, shards);
    EXPECT_EQ(bisect.min_flits_nonblocking, sweep.min_flits_nonblocking)
        << "shards=" << shards;
    EXPECT_LE(bisect.points.size(), 4U) << "log2(5) probes + boundary";
    // Probed points carry real evidence and ascend by depth.
    for (std::size_t i = 0; i < bisect.points.size(); ++i) {
      if (i > 0) {
        EXPECT_GT(bisect.points[i].buffer_flits,
                  bisect.points[i - 1].buffer_flits);
      }
      if (bisect.points[i].buffer_flits >= sweep.min_flits_nonblocking) {
        EXPECT_TRUE(bisect.points[i].sustained);
      }
    }
  }
}

TEST_F(BufferMargin, BisectionReportsZeroWhenNoDepthSustains) {
  BufferMarginConfig config = margin_config();
  config.probe_load = 1.0;
  config.base.packet_flits = 8;
  config.base.credit_delay = 8;
  config.buffer_sizes = {1};
  const auto result = analysis::buffer_margin_bisect(cache, traffic, config, 2);
  ASSERT_EQ(result.points.size(), 1U);
  EXPECT_FALSE(result.points[0].sustained);
  EXPECT_EQ(result.min_flits_nonblocking, 0U);
}

TEST_F(BufferMargin, ReportsZeroWhenNoDepthSustains) {
  // Probing only depth 1 under long wormhole packets at full load: the
  // credit round trip throttles every channel well below the sustain
  // fraction, so the sweep must report "no margin found" (0), not a
  // bogus depth.
  BufferMarginConfig config = margin_config();
  config.probe_load = 1.0;
  config.base.packet_flits = 8;
  config.base.credit_delay = 8;
  config.buffer_sizes = {1};
  const auto result = buffer_margin_sweep(cache, traffic, config);
  ASSERT_EQ(result.points.size(), 1U);
  EXPECT_TRUE(result.points[0].feasible);
  EXPECT_FALSE(result.points[0].sustained);
  EXPECT_EQ(result.min_flits_nonblocking, 0U);
}

}  // namespace
}  // namespace nbclos
