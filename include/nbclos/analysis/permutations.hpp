/// \file permutations.hpp
/// \brief Permutation communication patterns (paper Definition 1) and a
///        library of generators used across tests and experiments.
///
/// A permutation is a set of SD pairs in which every leaf appears at most
/// once as a source and at most once as a destination.  Generators cover
/// the patterns HPC codes actually produce (shifts, transposes,
/// bit-reversal, butterfly exchanges), uniform random sampling, and
/// adversarial stressors that concentrate destinations.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nbclos/topology/ids.hpp"
#include "nbclos/util/prng.hpp"

namespace nbclos {

/// A communication pattern; `validate_permutation` checks Definition 1.
using Permutation = std::vector<SDPair>;

/// Throws precondition_error unless the pattern is a permutation over
/// `leaf_count` leaves (sources distinct, destinations distinct, no
/// self-loops — a leaf sending to itself never touches the network).
void validate_permutation(const Permutation& pattern,
                          std::uint32_t leaf_count);

/// Uniformly random full permutation: every leaf is a source exactly
/// once; fixed points (src == dst) are dropped, so size may be slightly
/// below leaf_count.
[[nodiscard]] Permutation random_permutation(std::uint32_t leaf_count,
                                             Xoshiro256& rng);

/// random_permutation into reused buffers: the same draw from the same
/// rng state, with `target` left holding leaf s's destination at s.
void random_permutation(std::uint32_t leaf_count, Xoshiro256& rng,
                        std::vector<std::uint32_t>& target, Permutation& out);

/// Random partial permutation using `pairs` distinct sources and
/// destinations.  \pre pairs <= leaf_count.
[[nodiscard]] Permutation random_partial_permutation(std::uint32_t leaf_count,
                                                     std::uint32_t pairs,
                                                     Xoshiro256& rng);

/// Cyclic shift: dst = (src + offset) mod leaf_count.
/// \pre 0 < offset < leaf_count.
[[nodiscard]] Permutation shift_permutation(std::uint32_t leaf_count,
                                            std::uint32_t offset);

/// Reversal: dst = leaf_count - 1 - src (self-loop dropped when odd size).
[[nodiscard]] Permutation reverse_permutation(std::uint32_t leaf_count);

/// Bit-reversal of the leaf index.  \pre leaf_count is a power of two.
[[nodiscard]] Permutation bit_reversal_permutation(std::uint32_t leaf_count);

/// Butterfly stage k: dst = src XOR (1 << k).  \pre leaf_count is a power
/// of two, (1 << k) < leaf_count.
[[nodiscard]] Permutation butterfly_permutation(std::uint32_t leaf_count,
                                                std::uint32_t stage);

/// Tornado over bottom switches in ftree(n+m, r): leaf (v, k) sends to
/// leaf ((v + r/2) mod r, k) — every pair crosses the network.
[[nodiscard]] Permutation tornado_permutation(std::uint32_t n, std::uint32_t r);

/// All n leaves of each switch v send to the n leaves of switch
/// (v+1) mod r with *matching local index complemented* — a pattern that
/// funnels whole switches onto whole switches, stressing same-destination
/// -switch routing (the regime Lemma 3 is about).
[[nodiscard]] Permutation neighbor_funnel_permutation(std::uint32_t n,
                                                      std::uint32_t r);

/// Convert a full target vector (leaf s sends to target[s]) into a
/// Permutation, dropping fixed points.  The `out` variant reuses the
/// caller's buffer — the adversarial and exhaustive searches call this
/// once per evaluated permutation, so it must not allocate.
void permutation_from_targets(const std::vector<std::uint32_t>& target,
                              Permutation& out);
[[nodiscard]] Permutation permutation_from_targets(
    const std::vector<std::uint32_t>& target);

/// k! as uint64.  \pre k <= 20 (21! overflows).
[[nodiscard]] std::uint64_t factorial(std::uint32_t k);

/// The target vector of the `rank`-th permutation of {0..leaf_count-1}
/// in lexicographic order, via the factorial number system.
/// \pre leaf_count <= 20 and rank < leaf_count!.
[[nodiscard]] std::vector<std::uint32_t> unrank_targets(
    std::uint32_t leaf_count, std::uint64_t rank);

/// Inverse of unrank_targets: the lexicographic rank of a target vector.
[[nodiscard]] std::uint64_t rank_of_targets(
    const std::vector<std::uint32_t>& target);

/// Enumerate every full permutation of `leaf_count` leaves (dropping
/// fixed points from each) and invoke the callback.  Returns the number
/// of permutations visited.  Only sensible for leaf_count <= ~8.
std::uint64_t for_each_permutation(
    std::uint32_t leaf_count, const std::function<void(const Permutation&)>& fn);

/// Enumerate permutations with lexicographic rank in [begin_rank,
/// end_rank) in rank order; the callback returns false to stop early.
/// Returns the number visited (including the one that stopped the walk).
/// The Permutation passed to the callback lives in a reused buffer —
/// copy it if it must outlive the call.  This is the sharding primitive
/// for the parallel exhaustive verifier: each worker owns one contiguous
/// rank range.  \pre leaf_count <= 20, begin <= end <= leaf_count!.
std::uint64_t for_each_permutation_in_range(
    std::uint32_t leaf_count, std::uint64_t begin_rank, std::uint64_t end_rank,
    const std::function<bool(const Permutation&)>& fn);

}  // namespace nbclos
