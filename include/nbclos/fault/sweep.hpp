/// \file sweep.hpp
/// \brief Empirical "nonblocking margin" of ftree(n+n^2, r) under random
///        link failures.
///
/// Theorem 3 makes ftree(n+n^2, r) nonblocking for every permutation; the
/// sweep asks how much of that survives degradation.  Failures are drawn
/// as a growing, seed-fixed sequence of bottom<->top link pairs (nested
/// sets, see FailureModel::shuffled_uplink_pairs), and at each failure
/// count a batch of random permutations is routed with DegradedYuanRouting
/// and audited for contention.  The first failure count at which any
/// permutation blocks (or a pair becomes unroutable) is the fabric's
/// empirical nonblocking margin for that seed.
///
/// Each level builds one RouteCache of the degraded routing (kEmpty for
/// an unroutable pair), which every trial reads.  A trial checks its
/// pairs in source order — the first kEmpty pair makes it unroutable,
/// and a cross pair whose top differs from its Theorem 3 assignment is
/// a fallback pair — and a routable trial is scored by PermutationLoad,
/// as the verifier scores its permutations (analysis/contention.hpp).
///
/// Trials are parallelized over util::ThreadPool in a fixed number of
/// chunks with chunk-derived seeds, so results are bit-identical for any
/// thread count — the property the CLI's reproducibility contract rests
/// on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nbclos/routing/single_path.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos::analysis {

struct FaultSweepConfig {
  std::uint32_t n = 4;  ///< ftree(n+n^2, r)
  std::uint32_t r = 8;
  std::uint32_t max_failures = 24;   ///< uplink-pair failures at the last level
  std::uint32_t failure_step = 1;    ///< failure-count increment per level
  std::uint32_t permutations_per_level = 32;
  std::uint64_t seed = 2026;
  std::uint32_t chunks = 16;  ///< fixed parallel split (determinism knob)
  /// Stop after the first level that blocks (margin search) instead of
  /// sweeping every level (degradation curve).
  bool stop_at_first_blocking = false;
};

struct FaultSweepLevel {
  std::uint32_t failures = 0;  ///< failed uplink pairs at this level
  std::uint32_t blocked_permutations = 0;    ///< routed but with contention
  std::uint32_t unroutable_permutations = 0; ///< >= 1 pair had no live path
  std::uint64_t worst_collisions = 0;  ///< max colliding path pairs seen
  std::uint64_t fallback_pairs = 0;    ///< SD pairs forced off (i, j), summed
};

struct FaultSweepResult {
  std::vector<FaultSweepLevel> levels;  ///< failures = 0, step, 2*step, ...
  /// Failure count of the first level where any permutation blocked or
  /// became unroutable; nullopt when the whole sweep stayed clean.
  std::optional<std::uint32_t> first_blocking_failures;
  std::uint32_t permutations_per_level = 0;
};

[[nodiscard]] FaultSweepResult run_fault_sweep(const FaultSweepConfig& config,
                                               ThreadPool& pool);

/// One level of a simulated degraded-throughput sweep.
struct FaultThroughputLevel {
  std::uint32_t failures = 0;  ///< failed bottom<->top uplink pairs
  sim::SimResult sim;
  std::uint64_t reroutes = 0;  ///< fallback decisions by the fault oracle
};

/// Simulated accepted throughput as uplink failures accumulate: for each
/// entry of `levels`, fail that many seed-fixed uplink pairs (nested
/// sets, as in run_fault_sweep), route with the fault-tolerant table
/// oracle (primary assignment from `routing`, least-loaded live
/// fallback),
/// and run the packet simulator.  Levels are independent — each owns its
/// DegradedView, oracle, and simulator seeded only by (fault_seed,
/// sim_config.seed) — so they evaluate concurrently over `pool`
/// (nullptr = serial) with results bit-identical at any thread count.
[[nodiscard]] std::vector<FaultThroughputLevel> run_fault_throughput_sweep(
    const FoldedClos& ftree, const Network& net,
    const SinglePathRouting& routing,
    const sim::TrafficPattern& traffic, const sim::SimConfig& sim_config,
    const std::vector<std::uint32_t>& levels, std::uint64_t fault_seed,
    ThreadPool* pool = nullptr);

}  // namespace nbclos::analysis
