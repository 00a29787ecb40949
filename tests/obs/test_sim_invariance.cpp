/// \file test_sim_invariance.cpp
/// \brief The observability contract that matters most: instrumentation
///        reads engine state but never feeds back, so simulation results
///        are bit-identical whether obs is recording, paused, tracing,
///        or compiled out entirely (this file passes in all builds).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/sim/engine.hpp"

namespace nbclos::sim {
namespace {

SimResult run_once() {
  constexpr std::uint32_t kN = 2;
  constexpr std::uint32_t kR = 4;
  const FoldedClos ftree(FtreeParams{kN, kN * kN, kR});
  const auto net = build_network(ftree);
  const auto traffic = TrafficPattern::uniform(ftree.leaf_count());
  FtreeOracle oracle(ftree, UplinkPolicy::kDModK);
  SimConfig config;
  config.injection_rate = 0.7;
  config.warmup_cycles = 200;
  config.measure_cycles = 2000;
  config.seed = 13;
  PacketSim sim(net, oracle, traffic, config);
  return sim.run();
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.p999_latency, b.p999_latency);
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.mean_switch_queue_depth, b.mean_switch_queue_depth);
  EXPECT_EQ(a.min_flow_throughput, b.min_flow_throughput);
  EXPECT_EQ(a.max_flow_throughput, b.max_flow_throughput);
}

TEST(ObsSimInvariance, RecordingVsPausedIsBitIdentical) {
  obs::set_enabled(true);
  const auto recording = run_once();
  obs::set_enabled(false);
  const auto paused = run_once();
  obs::set_enabled(true);
  expect_identical(recording, paused);
}

TEST(ObsSimInvariance, ActiveTraceSessionIsBitIdentical) {
  const auto baseline = run_once();
  obs::TraceSession::start();
  const auto traced = run_once();
  obs::TraceSession::stop();
  expect_identical(baseline, traced);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(obs::TraceSession::event_count(), 0U)
        << "sim.run span should have been recorded";
  }
}

TEST(ObsSimInvariance, LinkUtilizationReportIsConsistent) {
  constexpr std::uint32_t kN = 2;
  constexpr std::uint32_t kR = 4;
  const FoldedClos ftree(FtreeParams{kN, kN * kN, kR});
  const auto net = build_network(ftree);
  const auto traffic = TrafficPattern::uniform(ftree.leaf_count());
  FtreeOracle oracle(ftree, UplinkPolicy::kDModK);
  SimConfig config;
  config.injection_rate = 0.5;
  config.warmup_cycles = 100;
  config.measure_cycles = 1000;
  config.seed = 5;
  auto& busy_counter = obs::metrics().counter("sim.link.busy_flit_cycles");
  busy_counter.reset();
  PacketSim sim(net, oracle, traffic, config);
  const auto result = sim.run();
  ASSERT_GT(result.delivered_packets, 0U);
  if constexpr (obs::kEnabled) {
    const auto& busy = sim.link_busy_flits();
    EXPECT_EQ(busy_counter.value(),
              std::accumulate(busy.begin(), busy.end(), std::uint64_t{0}))
        << "the registry counter must carry the run's busy flit-cycles";
  }

  const auto util = sim.link_utilization();
  ASSERT_EQ(util.busy_fraction.size(), net.channel_count());
  ASSERT_EQ(sim.link_busy_flits().size(), net.channel_count());
  double max_seen = 0.0;
  double sum = 0.0;
  for (const double frac : util.busy_fraction) {
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
    max_seen = std::max(max_seen, frac);
    sum += frac;
  }
  EXPECT_DOUBLE_EQ(util.max, max_seen);
  EXPECT_NEAR(util.mean, sum / static_cast<double>(util.busy_fraction.size()),
              1e-12);
  EXPECT_EQ(util.busy_fraction[util.max_channel], util.max);
  EXPECT_GT(util.max, 0.0) << "traffic flowed, some link must have been busy";
}

}  // namespace
}  // namespace nbclos::sim
