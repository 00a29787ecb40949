/// \file bench_micro.cpp
/// \brief google-benchmark micro timings for the hot paths: per-SD route
///        computation, full-pattern adaptive scheduling, centralized edge
///        coloring, the Lemma 1 audit, permutation scoring with and
///        without a route cache, and simulator cycle throughput.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "nbclos/adaptive/router.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/analysis/verifier.hpp"
#include "nbclos/routing/edge_coloring.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/routing/route_cache.hpp"
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

/// One serial verify_random call of `range(0)` trials on 80 leaves: 10
/// trials score pair by pair from top_for, 400 pay for a RouteCache
/// (scoring_cache_pays), built inside the call.
void BM_VerifyRandomPermutations(benchmark::State& state) {
  const nbclos::FoldedClos ft(nbclos::FtreeParams{4, 16, 20});
  const nbclos::YuanNonblockingRouting routing(ft);
  nbclos::Xoshiro256 rng(13);
  const auto router = nbclos::as_pattern_router(routing);
  const auto trials = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbclos::verify_random(ft, router, trials, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trials));
}
BENCHMARK(BM_VerifyRandomPermutations)->Arg(10)->Arg(400);

/// The three costs scoring_cache_pays weighs, per SD pair, on the
/// verify_ftree fabric ftree(8+64,64) (512 leaves): building the table,
/// and scoring a permutation pair by pair or from the table.
void BM_RouteCacheMaterialize(benchmark::State& state) {
  const nbclos::FoldedClos ft(nbclos::FtreeParams{8, 64, 64});
  const nbclos::YuanNonblockingRouting routing(ft);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbclos::routing::RouteCache::materialize(routing));
  }
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t{ft.leaf_count()} * ft.leaf_count());
}
BENCHMARK(BM_RouteCacheMaterialize);

void BM_ScorePermutation(benchmark::State& state) {
  const nbclos::FoldedClos ft(nbclos::FtreeParams{8, 64, 64});
  const nbclos::YuanNonblockingRouting routing(ft);
  const auto router = nbclos::as_pattern_router(routing);
  const auto cache = nbclos::routing::RouteCache::materialize(routing);
  const bool cached = state.range(0) != 0;
  std::optional<nbclos::PatternScorer> scorer;
  if (cached) {
    scorer.emplace(ft, router, cache);
  } else {
    scorer.emplace(ft, router, /*scores=*/0);
  }
  nbclos::Xoshiro256 rng(17);
  std::vector<std::uint32_t> target;
  nbclos::random_targets(ft.leaf_count(), rng, target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer->score(target).colliding_pairs());
  }
  state.SetItemsProcessed(state.iterations() * ft.leaf_count());
  state.SetLabel(cached ? "from the table" : "pair by pair");
}
BENCHMARK(BM_ScorePermutation)->Arg(0)->Arg(1);

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
