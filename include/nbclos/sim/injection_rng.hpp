/// \file injection_rng.hpp
/// \brief Counter-based injection randomness: the flow engine's only
///        stream, ShardedSim's over a NextHop, and PacketSim's opt-in
///        (`SimConfig::counter_injection`).
///
/// PacketSim's legacy injection process draws from one sequential
/// Xoshiro256 stream, so every terminal's draw depends on every earlier
/// terminal's draw — correct, but inherently serial; the packet goldens
/// still pin it.  The counter discipline makes the randomness for
/// (cycle, terminal) a pure function of (seed, cycle, terminal): a
/// SplitMix64 generator is keyed by mixing the three values, the first
/// draw decides the Bernoulli injection, and any further randomness the
/// traffic pattern needs (uniform/hotspot
/// destinations) comes from a Xoshiro256 seeded by the second draw.  Any
/// engine — single-threaded or sharded, at any shard count — reproduces
/// the identical injection stream regardless of which worker evaluates
/// which terminal, which is what makes the sharded golden-identity
/// contract possible (see DESIGN.md §"sharded memory layout").
#pragma once

#include <cstdint>

#include "nbclos/util/prng.hpp"

namespace nbclos::sim {

/// SplitMix64 state for the (seed, cycle, terminal) draw.  The odd
/// multipliers decorrelate neighboring cycles/terminals; SplitMix64's
/// output mix does the rest.
[[nodiscard]] inline constexpr std::uint64_t injection_counter_state(
    std::uint64_t seed, std::uint64_t cycle, std::uint32_t terminal) noexcept {
  return seed + cycle * 0x9E3779B97F4A7C15ULL +
         (std::uint64_t{terminal} + 1) * 0xBF58476D1CE4E5B9ULL;
}

/// Bernoulli draw with the same uniform01 mapping Xoshiro256 uses, so the
/// acceptance region for a given probability is bit-identical.
[[nodiscard]] inline bool injection_bernoulli(SplitMix64& sm,
                                              double p) noexcept {
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53 < p;
}

}  // namespace nbclos::sim
