/// \file parallel.hpp
/// \brief Thread-parallel experiment drivers.
///
/// Monte-Carlo verification is embarrassingly parallel, but two things
/// must be engineered for: (1) stateful routers (multipath, adaptive)
/// cannot be shared across threads, so workers build their own via a
/// factory; (2) results must not depend on the pool's thread count, so
/// trials are split into a *fixed* number of chunks with seeds derived
/// from the master seed, and partials are merged in chunk order.
#pragma once

#include <cstdint>
#include <functional>

#include "nbclos/analysis/blocking.hpp"
#include "nbclos/analysis/verifier.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos {

/// Build a worker-private PatternRouter from a chunk seed.
using PatternRouterFactory =
    std::function<PatternRouter(std::uint64_t chunk_seed)>;

/// Parallel estimate_blocking: `trials` random permutations split over
/// `chunks` deterministic chunks evaluated on `pool`.  The estimate is
/// identical for any pool size (chunk seeds and merge order are fixed).
[[nodiscard]] BlockingEstimate estimate_blocking_parallel(
    const FoldedClos& ftree, const PatternRouterFactory& make_router,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks = 16);

/// Parallel randomized nonblocking verification: returns nonblocking ==
/// true iff no chunk found a counterexample; otherwise one
/// counterexample (from the lowest-index failing chunk, so the result is
/// deterministic).
[[nodiscard]] VerifyResult verify_random_parallel(
    const FoldedClos& ftree, const PatternRouterFactory& make_router,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks = 16);

/// Batched overloads for single-path deterministic routings: one
/// RouteCache is materialized per call and shared read-only by every
/// worker; each chunk scores its trials through a private BatchLoadKernel
/// (analysis/batch.hpp), up to BatchLoadKernel::kMaxBatch permutations
/// per arena pass.  Same chunk seeds, same per-trial statistics, same
/// merge order — the results are bit-identical to the factory overloads
/// above wrapping `routing`.  They are not faster for every routing: at
/// ftree(8+64, 64), 20000 trials on 2 threads (the verify_ftree
/// benchmark, EXPERIMENTS.md), the batched call takes ~1.5x the factory
/// call's time, cache build included, because Yuan's arithmetic route()
/// costs less than any table lookup.  `nbclos verify … random` therefore
/// stays on the factory overload.
[[nodiscard]] BlockingEstimate estimate_blocking_parallel(
    const FoldedClos& ftree, const SinglePathRouting& routing,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks = 16);
[[nodiscard]] VerifyResult verify_random_parallel(
    const FoldedClos& ftree, const SinglePathRouting& routing,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks = 16);

/// Parallel exhaustive verification, sharded over contiguous lexicographic
/// rank ranges of the full permutation space (factorial-number-system
/// unrank seeds each shard, std::next_permutation walks it).  An atomic
/// lowest-counterexample-rank flag lets shards abandon ranks that can no
/// longer matter, and the merged result — the lowest-rank counterexample,
/// with permutations_checked = its rank + 1 (or leafs! when nonblocking)
/// — is bit-identical to serial verify_exhaustive at any thread count.
/// `shards` == 0 picks 16 per pool thread.  \pre leaf_count <= 11.
[[nodiscard]] VerifyResult verify_exhaustive_parallel(
    const FoldedClos& ftree, const PatternRouterFactory& make_router,
    ThreadPool& pool, std::uint32_t shards = 0);

/// The per-restart seed used by the parallel adversarial drivers;
/// exposed so tools can reproduce an individual restart.
[[nodiscard]] std::uint64_t adversarial_restart_seed(std::uint64_t seed,
                                                     std::uint32_t restart);

/// Parallel delta-evaluated adversarial search: every restart runs with
/// its own SplitMix64-derived seed and private SwapDeltaState, so the
/// merged result (lowest failing restart index wins; permutations_checked
/// sums restarts up to and including it) is thread-count independent.
/// `routing` is shared read-only across workers and must be thread-safe
/// under concurrent route() calls — true of all deterministic routings
/// in this library.
[[nodiscard]] VerifyResult verify_adversarial_parallel(
    const FoldedClos& ftree, const SinglePathRouting& routing,
    const AdversarialOptions& options, std::uint64_t seed, ThreadPool& pool);

/// Parallel worst-case maximization over per-restart seeds; the merged
/// result takes the max-collision restart (lowest index on ties).
[[nodiscard]] WorstCaseResult worst_case_search_parallel(
    const FoldedClos& ftree, const SinglePathRouting& routing,
    const AdversarialOptions& options, std::uint64_t seed, ThreadPool& pool);

}  // namespace nbclos
