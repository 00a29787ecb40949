/// \file buffer_margin.hpp
/// \brief Buffer-margin sweep: the minimum flits per switch port at
///        which a routing sustains nonblocking throughput under finite
///        buffers and real flow control.
///
/// The paper's Theorem 3 guarantees link-disjoint paths for any
/// permutation — an *ideal-switch* statement.  With finite buffers, a
/// too-shallow FIFO stalls even a contention-free schedule (credit
/// round-trips, serialization of multi-flit packets), so the practical
/// question is: how deep must the per-port buffers be before the fabric
/// behaves nonblocking again?  This sweep probes a high offered load
/// across ascending buffer depths and reports the first depth that
/// sustains it.
///
/// Declared in namespace nbclos::analysis (the experiment-harness
/// namespace) but built into the flow library, mirroring how the fault
/// library hosts analysis::run_fault_sweep — analysis/ sits below flow/
/// in the dependency order, so the harness lives with the engine it
/// drives.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nbclos/flow/engine.hpp"

namespace nbclos::analysis {

struct BufferMarginConfig {
  /// Buffer depths (flits per switch FIFO) to probe, strictly ascending.
  std::vector<std::uint32_t> buffer_sizes;
  /// Offered load each depth must sustain (flits/cycle/terminal).
  double probe_load = 1.0;
  /// Sustained means accepted >= sustain_fraction * probe_load — 0.95
  /// matches the engines' saturated() rule.
  double sustain_fraction = 0.95;
  /// Template for every probe; buffer_flits and injection_rate are
  /// overridden per point.
  flow::FlowConfig base;
};

struct BufferMarginPoint {
  std::uint32_t buffer_flits = 0;
  /// False when the depth cannot even host the configured switching mode
  /// (VCT needs a whole packet per FIFO, on/off needs signaling slack);
  /// such points are recorded as unsustained without running.
  bool feasible = true;
  double accepted_throughput = 0.0;
  bool sustained = false;
  bool deadlocked = false;
  std::uint64_t credit_stall_cycles = 0;
  std::uint32_t peak_buffer_flits = 0;
};

struct BufferMarginResult {
  std::vector<BufferMarginPoint> points;  ///< one per requested depth
  /// Smallest probed depth that sustained the load; 0 when none did.
  std::uint32_t min_flits_nonblocking = 0;
};

/// Probe every requested buffer depth at `probe_load`, in parallel over
/// `pool` (nullptr = serial).  Each probe is an independent FlowSim run
/// fully determined by its config, so the result is identical at any
/// thread count.
[[nodiscard]] BufferMarginResult buffer_margin_sweep(
    const std::shared_ptr<const routing::NextHop>& routes,
    const sim::TrafficPattern& traffic, const BufferMarginConfig& config,
    ThreadPool* pool = nullptr);

/// Early-exit bisection over the same depth grid: find the margin with
/// O(log N) probes instead of N, each probe a `flow::ShardedFlowSim` run
/// at `shards` workers (counter injection — verdicts are bit-identical
/// at any shard count).  Assumes sustainability is monotone in depth at
/// fixed load — deeper FIFOs never lose throughput — which holds for
/// the deterministic single-path routings this harness probes; when it
/// holds, `min_flits_nonblocking` equals the full sweep's.  Returned
/// `points` holds only the depths actually probed (ascending), so past
/// radix 16 — where one probe is minutes, not seconds — the margin of a
/// 12-point grid costs 4 probes.
[[nodiscard]] BufferMarginResult buffer_margin_bisect(
    const std::shared_ptr<const routing::NextHop>& routes,
    const sim::TrafficPattern& traffic, const BufferMarginConfig& config,
    std::uint32_t shards = 1);

}  // namespace nbclos::analysis
