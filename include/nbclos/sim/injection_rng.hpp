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

#include <cmath>
#include <cstdint>

#include "nbclos/util/prng.hpp"

namespace nbclos::sim {

/// What one more terminal adds to the (seed, cycle, terminal) state: an
/// injection sweep over consecutive terminals advances it by one add.
inline constexpr std::uint64_t kInjectionTerminalStride = 0xBF58476D1CE4E5B9ULL;

/// SplitMix64 state for the (seed, cycle, terminal) draw.  The odd
/// multipliers decorrelate neighboring cycles/terminals; SplitMix64's
/// output mix does the rest.
[[nodiscard]] inline constexpr std::uint64_t injection_counter_state(
    std::uint64_t seed, std::uint64_t cycle, std::uint32_t terminal) noexcept {
  return seed + cycle * 0x9E3779B97F4A7C15ULL +
         (std::uint64_t{terminal} + 1) * kInjectionTerminalStride;
}

/// The integer acceptance bound of a Bernoulli(p) draw: ceil(p * 2^53),
/// clamped to [0, 2^53].  Computed once per run.
[[nodiscard]] inline std::uint64_t injection_threshold(double p) noexcept {
  constexpr double kScale = 0x1.0p53;
  if (!(p > 0.0)) return 0;  // also NaN: the double test never accepts
  if (p >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(p * kScale));
}

/// Bernoulli draw with the same uniform01 mapping Xoshiro256 uses, in
/// integers: for k = draw >> 11 < 2^53, double(k) * 2^-53 < p holds
/// exactly when k < ceil(p * 2^53) (the scaling by 2^53 is exact), so
/// the acceptance region is bit-identical to the double test.
/// \pre threshold == injection_threshold(p).
[[nodiscard]] inline bool injection_bernoulli(
    SplitMix64& sm, std::uint64_t threshold) noexcept {
  return (sm.next() >> 11) < threshold;
}

}  // namespace nbclos::sim
