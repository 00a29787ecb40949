#include "nbclos/fault/sweep.hpp"

#include <algorithm>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/degraded_routing.hpp"
#include "nbclos/fault/failure_model.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos::analysis {

namespace {

/// Per-chunk partial counts, merged additively (order-independent except
/// worst_collisions, which is a max — also order-independent).
struct ChunkCounts {
  std::uint32_t blocked = 0;
  std::uint32_t unroutable = 0;
  std::uint64_t worst_collisions = 0;
  std::uint64_t fallback_pairs = 0;
};

/// Seed for (sweep seed, failure level, chunk) — decorrelated via
/// SplitMix64 so neighboring levels/chunks share no stream structure.
std::uint64_t chunk_seed(std::uint64_t seed, std::uint32_t failures,
                         std::uint32_t chunk) {
  SplitMix64 sm(seed ^ (std::uint64_t{failures} << 32) ^ chunk);
  return sm.next();
}

}  // namespace

FaultSweepResult run_fault_sweep(const FaultSweepConfig& config,
                                 ThreadPool& pool) {
  NBCLOS_REQUIRE(config.n >= 2 && config.r >= 2, "sweep needs n, r >= 2");
  NBCLOS_REQUIRE(config.failure_step >= 1, "failure step must be >= 1");
  NBCLOS_REQUIRE(config.chunks >= 1, "need at least one chunk");
  NBCLOS_REQUIRE(config.permutations_per_level >= 1,
                 "need at least one permutation per level");

  const FoldedClos ftree(
      FtreeParams{config.n, config.n * config.n, config.r});
  NBCLOS_REQUIRE(config.max_failures <= ftree.r() * ftree.m(),
                 "cannot fail more uplink pairs than the ftree has");
  const Network net = build_network(ftree);
  // One shuffled order for the whole sweep: level k fails the first k
  // pairs, so failure sets are nested and the margin is well defined.
  const auto pair_order =
      fault::FailureModel::shuffled_uplink_pairs(ftree, config.seed);

  FaultSweepResult result;
  result.permutations_per_level = config.permutations_per_level;

  obs::ScopedSpan sweep_span("fault.sweep", "sweep");
  sweep_span.arg("max_failures", static_cast<double>(config.max_failures));
  fault::DegradedView view(net);
  std::uint32_t failed = 0;
  for (std::uint32_t failures = 0; failures <= config.max_failures;
       failures += config.failure_step) {
    obs::ScopedSpan level_span("fault.level", "sweep");
    level_span.arg("failures", static_cast<double>(failures));
    // Grow the failure set incrementally (sets are nested by design).
    for (; failed < failures; ++failed) {
      view.fail_channel(
          ftree.up_link(pair_order[failed].first, pair_order[failed].second)
              .value);
      view.fail_channel(
          ftree.down_link(pair_order[failed].second, pair_order[failed].first)
              .value);
    }
    const fault::DegradedYuanRouting routing(ftree, view);
    // One degraded route cache per failure level: the level's routing is
    // fixed, so its tops are built once (kEmpty for an unroutable pair)
    // and every trial below reads them instead of calling try_route per
    // pair.  The cache is invalid the moment the failure set grows — the
    // next level iteration rebuilds it from the new DegradedYuanRouting.
    const auto cache =
        routing::RouteCache::build(ftree, [&](SDPair sd) -> std::uint16_t {
          const auto routed = routing.try_route(sd);
          if (!routed.has_value()) return routing::RouteCache::kEmpty;
          return routed->direct
                     ? routing::RouteCache::kDirect
                     : static_cast<std::uint16_t>(routed->top.value);
        });

    // The trial split is over config.chunks *logical* chunks with
    // chunk-derived seeds, not over worker threads, so the counts are
    // bit-identical for any pool size.
    std::vector<ChunkCounts> partials(config.chunks);
    const auto trials = config.permutations_per_level;
    const std::uint32_t leafs = ftree.leaf_count();
    pool.parallel_for(
        0, config.chunks,
        [&](std::size_t chunk) {
          const auto lo = static_cast<std::uint32_t>(
              std::uint64_t{trials} * chunk / config.chunks);
          const auto hi = static_cast<std::uint32_t>(
              std::uint64_t{trials} * (chunk + 1) / config.chunks);
          Xoshiro256 rng(chunk_seed(config.seed, failures,
                                    static_cast<std::uint32_t>(chunk)));
          auto& counts = partials[chunk];
          PermutationLoad load(ftree);
          std::vector<std::uint32_t> target;
          std::uint64_t lookups = 0;
          for (std::uint32_t trial = lo; trial < hi; ++trial) {
            random_targets(leafs, rng, target);
            bool unroutable = false;
            // Source order matters: fallback_pairs counts the pairs seen
            // before the first unroutable one.  A fallback pair is a
            // cross pair off its Theorem 3 top.
            for (std::uint32_t s = 0; s < leafs; ++s) {
              const std::uint32_t d = target[s];
              if (d == s) continue;
              const std::uint16_t top = cache.top(s, d);
              if (top == routing::RouteCache::kEmpty) {
                unroutable = true;
                break;
              }
              ++lookups;
              if (top != routing::RouteCache::kDirect &&
                  top != routing.primary_top({LeafId{s}, LeafId{d}}).value) {
                ++counts.fallback_pairs;
              }
            }
            if (unroutable) {
              ++counts.unroutable;
              continue;
            }
            load.load(target, cache);
            const auto collisions = load.colliding_pairs();
            if (collisions > 0) ++counts.blocked;
            counts.worst_collisions =
                std::max(counts.worst_collisions, collisions);
          }
          routing::RouteCache::note_lookups(lookups);
        });

    FaultSweepLevel level;
    level.failures = failures;
    for (const auto& counts : partials) {
      level.blocked_permutations += counts.blocked;
      level.unroutable_permutations += counts.unroutable;
      level.worst_collisions =
          std::max(level.worst_collisions, counts.worst_collisions);
      level.fallback_pairs += counts.fallback_pairs;
    }
    result.levels.push_back(level);
    obs::metrics().counter("fault.levels").add(1);
    obs::metrics()
        .counter("fault.permutations")
        .add(config.permutations_per_level);

    const bool blocks =
        level.blocked_permutations + level.unroutable_permutations > 0;
    if (blocks && !result.first_blocking_failures.has_value()) {
      result.first_blocking_failures = failures;
      if (config.stop_at_first_blocking) break;
    }
  }
  return result;
}

std::vector<FaultThroughputLevel> run_fault_throughput_sweep(
    const FoldedClos& ftree, const Network& net,
    const SinglePathRouting& routing,
    const sim::TrafficPattern& traffic, const sim::SimConfig& sim_config,
    const std::vector<std::uint32_t>& levels, std::uint64_t fault_seed,
    ThreadPool* pool) {
  std::vector<FaultThroughputLevel> results(levels.size());
  obs::ScopedSpan sweep_span("fault.throughput_sweep", "sweep");
  sweep_span.arg("levels", static_cast<double>(levels.size()));
  const auto run_level = [&](std::size_t i) {
    obs::ScopedSpan level_span("fault.level", "sweep");
    level_span.arg("failures", static_cast<double>(levels[i]));
    fault::DegradedView view(net);
    fault::FailureModel model(net);
    model.inject_random_uplink_failures(ftree, levels[i], fault_seed);
    model.apply_static(view);
    sim::FtreeOracle oracle(ftree, sim::UplinkPolicy::kTable, &routing, 7,
                            &view);
    sim::PacketSim simulation(net, oracle, traffic, sim_config, &view);
    auto& level = results[i];
    level.failures = levels[i];
    level.sim = simulation.run();
    level.reroutes = oracle.reroute_count();
  };
  if (pool != nullptr && levels.size() > 1) {
    pool->parallel_for(0, levels.size(), run_level);
  } else {
    for (std::size_t i = 0; i < levels.size(); ++i) run_level(i);
  }
  return results;
}

}  // namespace nbclos::analysis
