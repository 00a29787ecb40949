#include <gtest/gtest.h>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/failure_model.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/oracle.hpp"

namespace nbclos::fault {
namespace {

struct Harness {
  FoldedClos ftree{FtreeParams{2, 4, 4}};
  Network net = build_network(ftree);
  Permutation pattern = shift_permutation(ftree.leaf_count(), 3);
  sim::TrafficPattern traffic =
      sim::TrafficPattern::permutation(pattern, ftree.leaf_count());
  YuanNonblockingRouting yuan{ftree};
};

sim::SimConfig quick_config() {
  sim::SimConfig config;
  config.injection_rate = 0.5;
  config.warmup_cycles = 300;
  config.measure_cycles = 1500;
  config.seed = 17;
  return config;
}

TEST(SimFaults, PristineRunDropsNothing) {
  Harness s;
  DegradedView view(s.net);
  sim::FtreeOracle oracle(s.ftree, sim::UplinkPolicy::kTable, &s.yuan, 7,
                          &view);
  sim::PacketSim sim(s.net, oracle, s.traffic, quick_config(), &view);
  const auto result = sim.run();
  EXPECT_EQ(result.dropped_packets, 0U);
  EXPECT_EQ(oracle.reroute_count(), 0U);
  EXPECT_GT(result.delivered_packets, 0U);
}

TEST(SimFaults, MidMeasurementFailureDegradesButCompletes) {
  Harness s;
  const auto config = quick_config();

  DegradedView pristine_view(s.net);
  sim::FtreeOracle pristine_oracle(s.ftree, sim::UplinkPolicy::kTable,
                                   &s.yuan, 7, &pristine_view);
  sim::PacketSim pristine_sim(s.net, pristine_oracle, s.traffic, config,
                              &pristine_view);
  const auto pristine = pristine_sim.run();

  DegradedView view(s.net);
  FailureModel model(s.net);
  // A top switch dies in the middle of the measurement window.  Shift-by-3
  // traffic on ftree(2+4, 4) routes through tops (0,1) = 1 and (1,0) = 2
  // under Theorem 3, so kill top 1 to force actual reroutes.
  model.fail_top_switch(s.ftree, TopId{1},
                        config.warmup_cycles + config.measure_cycles / 2);
  sim::FtreeOracle oracle(s.ftree, sim::UplinkPolicy::kTable, &s.yuan, 7,
                          &view);
  sim::PacketSim sim(s.net, oracle, s.traffic, config, &view,
                     model.schedule());
  const auto degraded = sim.run();

  // The fabric kept running: traffic still flows after the event because
  // the oracle reroutes around the dead top switch.
  EXPECT_GT(degraded.delivered_packets, 0U);
  EXPECT_GT(oracle.reroute_count(), 0U);
  // Rerouted flows share uplinks and the purge drops packets, so degraded
  // throughput does not meaningfully exceed pristine (small slack for
  // window-edge timing differences).
  EXPECT_LE(degraded.accepted_throughput,
            pristine.accepted_throughput + 0.01);
  EXPECT_GT(degraded.dropped_packets, 0U);
  // The view reflects the applied event after the run.
  EXPECT_EQ(view.failed_vertex_count(), 1U);
}

TEST(SimFaults, RunsAreBitReproducible) {
  Harness s;
  const auto config = quick_config();
  const auto run_once = [&]() {
    DegradedView view(s.net);
    FailureModel model(s.net);
    model.inject_random_uplink_failures(s.ftree, 2, 5, 0);
    model.fail_top_switch(s.ftree, TopId{2}, 800);
    sim::FtreeOracle oracle(s.ftree, sim::UplinkPolicy::kTable, &s.yuan, 7,
                            &view);
    sim::PacketSim sim(s.net, oracle, s.traffic, config, &view,
                       model.schedule());
    return sim.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
}

TEST(SimFaults, DeadLeafUplinkDropsAtInjection) {
  Harness s;
  DegradedView view(s.net);
  view.fail_channel(s.ftree.leaf_up_link(LeafId{0}).value);
  sim::FtreeOracle oracle(s.ftree, sim::UplinkPolicy::kTable, &s.yuan, 7,
                          &view);
  sim::PacketSim sim(s.net, oracle, s.traffic, quick_config(), &view);
  const auto result = sim.run();
  // Leaf 0's offered packets are all lost; everyone else still delivers.
  // (Packets still queued or in flight at run end are neither delivered
  // nor dropped, so the three counters need not sum exactly.)
  EXPECT_GT(result.dropped_packets, 0U);
  EXPECT_GT(result.delivered_packets, 0U);
  EXPECT_GE(result.injected_packets,
            result.delivered_packets + result.dropped_packets);
}

TEST(SimFaults, FaultEventsRequireDegradedView) {
  Harness s;
  sim::FtreeOracle oracle(s.ftree, sim::UplinkPolicy::kTable, &s.yuan);
  EXPECT_THROW(sim::PacketSim(s.net, oracle, s.traffic, quick_config(),
                              nullptr, {{0, FaultAction::kFailChannel, 0}}),
               precondition_error);
}

}  // namespace
}  // namespace nbclos::fault
