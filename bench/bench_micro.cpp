/// \file bench_micro.cpp
/// \brief google-benchmark micro timings for the hot paths: per-SD route
///        computation, full-pattern adaptive scheduling, centralized edge
///        coloring, the Lemma 1 audit, and simulator cycle throughput.
#include <benchmark/benchmark.h>

#include "nbclos/adaptive/router.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/analysis/verifier.hpp"
#include "nbclos/routing/edge_coloring.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"

namespace {

void BM_YuanRouteSingle(benchmark::State& state) {
  const nbclos::FoldedClos ft(
      nbclos::FtreeParams{8, 64, static_cast<std::uint32_t>(state.range(0))});
  const nbclos::YuanNonblockingRouting routing(ft);
  nbclos::Xoshiro256 rng(1);
  std::uint32_t s = 0;
  std::uint32_t d = ft.n();
  for (auto _ : state) {
    const nbclos::SDPair sd{nbclos::LeafId{s}, nbclos::LeafId{d}};
    benchmark::DoNotOptimize(routing.route(sd));
    s = (s + 1) % ft.leaf_count();
    d = (d + ft.n() + 1) % ft.leaf_count();
    if (s / ft.n() == d / ft.n()) d = (d + ft.n()) % ft.leaf_count();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_YuanRouteSingle)->Arg(20)->Arg(72);

void BM_AdaptiveSchedulePermutation(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t r = n * n;
  const nbclos::adaptive::AdaptiveParams params{
      n, r, nbclos::min_digit_width(r, n)};
  const nbclos::adaptive::NonblockingAdaptiveRouter router(params);
  nbclos::Xoshiro256 rng(7);
  const auto pattern = nbclos::random_permutation(n * r, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(pattern));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pattern.size()));
}
BENCHMARK(BM_AdaptiveSchedulePermutation)->Arg(4)->Arg(8)->Arg(16);

void BM_CentralizedEdgeColoring(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const nbclos::FoldedClos ft(nbclos::FtreeParams{n, n, 4 * n});
  const nbclos::CentralizedRearrangeableRouter router(ft);
  nbclos::Xoshiro256 rng(11);
  const auto pattern = nbclos::random_permutation(ft.leaf_count(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(pattern));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pattern.size()));
}
BENCHMARK(BM_CentralizedEdgeColoring)->Arg(4)->Arg(8)->Arg(16);

void BM_Lemma1Audit(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const nbclos::FoldedClos ft(nbclos::FtreeParams{n, n * n, n + n * n});
  const nbclos::YuanNonblockingRouting routing(ft);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbclos::lemma1_audit(routing));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ft.cross_pair_count()));
}
BENCHMARK(BM_Lemma1Audit)->Arg(3)->Arg(4)->Arg(5);

void BM_VerifyRandomPermutations(benchmark::State& state) {
  const nbclos::FoldedClos ft(nbclos::FtreeParams{4, 16, 20});
  const nbclos::YuanNonblockingRouting routing(ft);
  nbclos::Xoshiro256 rng(13);
  const auto router = nbclos::as_pattern_router(routing);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbclos::verify_random(ft, router, 10, rng));
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_VerifyRandomPermutations);

/// One uplink choice of the Theorem 3 routing, through the adapter the
/// engines route by: a cross pair at its source's bottom switch.
void BM_TopChoiceNextHop(benchmark::State& state) {
  const nbclos::FoldedClos ft(nbclos::FtreeParams{4, 16, 8});
  const auto net = nbclos::build_network(ft);
  const nbclos::routing::TopChoiceNextHop next_hop(
      std::make_shared<const nbclos::YuanNonblockingRouting>(ft), net);
  const nbclos::FtreeNetworkMap map{ft.params()};
  std::uint32_t s = 0;
  std::uint32_t d = ft.n();
  for (auto _ : state) {
    benchmark::DoNotOptimize(next_hop.next_channel_from(
        map.bottom(ft.switch_of(nbclos::LeafId{s})), s, d));
    s = (s + 1) % ft.leaf_count();
    d = (d + ft.n() + 1) % ft.leaf_count();
    if (s / ft.n() == d / ft.n()) d = (d + ft.n()) % ft.leaf_count();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopChoiceNextHop);

void BM_QuantileHistogramAdd(benchmark::State& state) {
  nbclos::QuantileHistogram hist(100000);
  nbclos::Xoshiro256 rng(3);
  for (auto _ : state) {
    hist.add(rng.below(100000));
  }
  benchmark::DoNotOptimize(hist.quantile(0.99));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantileHistogramAdd);

void BM_SimulatorCycles(benchmark::State& state) {
  const nbclos::FoldedClos ft(nbclos::FtreeParams{4, 16, 8});
  const auto net = nbclos::build_network(ft);
  const nbclos::YuanNonblockingRouting routing(ft);
  const auto pattern = nbclos::shift_permutation(ft.leaf_count(), 5);
  const auto traffic =
      nbclos::sim::TrafficPattern::permutation(pattern, ft.leaf_count());
  for (auto _ : state) {
    nbclos::sim::FtreeOracle oracle(ft, nbclos::sim::UplinkPolicy::kTable,
                                    &routing);
    nbclos::sim::SimConfig config;
    config.injection_rate = 0.8;
    config.warmup_cycles = 100;
    config.measure_cycles = 900;
    nbclos::sim::PacketSim sim(net, oracle, traffic, config);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // cycles
}
BENCHMARK(BM_SimulatorCycles);

/// Low-load regime: per-cycle cost is bounded by resident packets, not
/// fabric size, thanks to the active-channel lists.
void BM_SimulatorCyclesLowLoad(benchmark::State& state) {
  const nbclos::FoldedClos ft(nbclos::FtreeParams{4, 16, 8});
  const auto net = nbclos::build_network(ft);
  const nbclos::YuanNonblockingRouting routing(ft);
  const auto pattern = nbclos::shift_permutation(ft.leaf_count(), 5);
  const auto traffic =
      nbclos::sim::TrafficPattern::permutation(pattern, ft.leaf_count());
  for (auto _ : state) {
    nbclos::sim::FtreeOracle oracle(ft, nbclos::sim::UplinkPolicy::kTable,
                                    &routing);
    nbclos::sim::SimConfig config;
    config.injection_rate = 0.1;
    config.warmup_cycles = 100;
    config.measure_cycles = 900;
    nbclos::sim::PacketSim sim(net, oracle, traffic, config);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // cycles
}
BENCHMARK(BM_SimulatorCyclesLowLoad);

}  // namespace
