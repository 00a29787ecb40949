/// \file engine.hpp
/// \brief Cycle-level flow-control simulator: finite per-VC flit
///        buffers, credit / on-off backpressure, wormhole or
///        virtual-cut-through switching.
///
/// FlowSim refines sim::PacketSim from packet granularity down to flits.
/// Where PacketSim teleports a whole packet into an (effectively sized)
/// output queue, FlowSim moves one flit per channel per cycle between
/// *finite* output FIFOs and blocks the upstream flit in place when the
/// downstream FIFO has no room — which is exactly how head-of-line
/// blocking, credit stalls, buffer-induced tree saturation, and wormhole
/// deadlock arise in real folded-Clos routers (the effects the paper's
/// ideal-switch Theorems 1-3 abstract away).
///
/// Model (output-buffered, Dally & Towles conventions):
///   * every channel c owns `vcs` flit FIFOs at its source vertex; a
///     flit transmitted on c lands one cycle later in the downstream
///     FIFO its packet holds, or is ejected if dst(c) is a terminal;
///   * a head flit must first allocate a downstream (channel, VC):
///     the route comes from the shared routing::NextHop (a
///     ChannelRouteCache table or a pure O(1) router), the
///     VC from a first-free scan starting at the packet's current VC,
///     and the VC is *claimed* until the tail flit arrives — packets
///     never interleave inside a FIFO, and a buffer has at most one
///     writer in flight (what makes the occupancy bounds provable);
///   * wormhole: one free downstream slot admits the head, so a blocked
///     worm spans routers and holds its claims (the deadlock mechanism);
///     virtual cut-through: the head waits for the whole packet's worth
///     of space, so a stalled packet always fits in one router;
///   * backpressure is credit-based (conservative counters, delayed
///     returns) or on/off (stop bit, 1-cycle signal delay) — see
///     credits.hpp for the occupancy-bound arguments;
///   * terminal NIC send queues stay unbounded, and injection draws
///     from the counter-based stream PacketSim runs under
///     `SimConfig::ideal_reference`, which is what makes the
///     cross-engine golden equivalence test possible (see
///     FlowConfig::ideal_reference).
///
/// FlowSim has no driver of its own: it is ShardedFlowSim (sharded.hpp)
/// at one shard, whose kernel arena (kernel.hpp) holds the whole fabric
/// by global id.  Per cycle: credit returns -> wire arrivals -> one
/// transmit per active channel -> injection -> on/off latch -> depth
/// sample -> watchdog.  All iteration orders are fixed (active channels
/// swept in ascending id, the PacketSim discipline), so runs are
/// bit-reproducible from seeds and sweeps are thread-count independent.
///
/// The deadlock watchdog is the robustness backstop: if a whole epoch
/// passes with flits in the system but none transmitted, the run stops
/// with a diagnostic instead of hanging — wormhole configurations on
/// cyclic channel dependencies *should* trip it (see tests/flow).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nbclos/flow/buffers.hpp"
#include "nbclos/flow/credits.hpp"
#include "nbclos/flow/sharded.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos::flow {

/// The one-shard flow engine: ShardedFlowSim at one shard, with the
/// same results.
class FlowSim : public ShardedFlowSim {
 public:
  FlowSim(std::shared_ptr<const routing::NextHop> routes,
          const sim::TrafficPattern& traffic, FlowConfig config,
          const fault::DegradedView* degraded = nullptr,
          std::vector<fault::FaultEvent> fault_events = {})
      : ShardedFlowSim(std::move(routes), traffic, config, 1, degraded,
                       std::move(fault_events)) {}
};

/// Run one FlowSim per injection rate over `pool` (nullptr = serial).
/// Each run is fully determined by its config, so the results are
/// field-for-field identical at any thread count.
[[nodiscard]] std::vector<FlowResult> flow_load_sweep(
    const std::shared_ptr<const routing::NextHop>& routes,
    const sim::TrafficPattern& traffic, const FlowConfig& base,
    const std::vector<double>& rates, ThreadPool* pool);

}  // namespace nbclos::flow
