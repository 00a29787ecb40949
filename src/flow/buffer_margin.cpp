#include "nbclos/flow/buffer_margin.hpp"

#include <algorithm>
#include <utility>

#include "nbclos/flow/sharded.hpp"
#include "nbclos/obs/trace.hpp"

namespace nbclos::analysis {

namespace {

/// Shallowest FIFO the configured switching/backpressure pair can host
/// at all (the engine REQUIREs these; the sweep records thinner depths
/// as infeasible instead of throwing).
std::uint32_t min_feasible_depth(const flow::FlowConfig& base) {
  const std::uint32_t reservation =
      base.switching == flow::Switching::kVirtualCutThrough
          ? base.packet_flits
          : 1u;
  if (base.backpressure == flow::Backpressure::kOnOff) {
    return reservation + 1;
  }
  return reservation;
}

}  // namespace

BufferMarginResult buffer_margin_sweep(
    const std::shared_ptr<const routing::NextHop>& routes,
    const sim::TrafficPattern& traffic, const BufferMarginConfig& config,
    ThreadPool* pool) {
  NBCLOS_REQUIRE(!config.buffer_sizes.empty(),
                 "buffer-margin sweep needs at least one depth to probe");
  for (std::size_t i = 1; i < config.buffer_sizes.size(); ++i) {
    NBCLOS_REQUIRE(config.buffer_sizes[i - 1] < config.buffer_sizes[i],
                   "buffer depths must be strictly ascending");
  }
  NBCLOS_REQUIRE(config.probe_load > 0.0 && config.probe_load <= 1.0,
                 "probe load must be in (0, 1]");
  NBCLOS_REQUIRE(
      config.sustain_fraction > 0.0 && config.sustain_fraction <= 1.0,
      "sustain fraction must be in (0, 1]");

  obs::ScopedSpan span("flow.buffer_margin_sweep", "sweep");
  span.arg("depths", static_cast<double>(config.buffer_sizes.size()));
  const std::uint32_t floor_depth = min_feasible_depth(config.base);

  BufferMarginResult result;
  result.points.resize(config.buffer_sizes.size());
  const auto probe_at = [&](std::size_t i) {
    BufferMarginPoint& point = result.points[i];
    point.buffer_flits = config.buffer_sizes[i];
    if (point.buffer_flits < floor_depth) {
      point.feasible = false;
      return;
    }
    flow::FlowConfig probe = config.base;
    probe.buffer_flits = point.buffer_flits;
    probe.injection_rate = config.probe_load;
    flow::FlowSim sim(routes, traffic, probe);
    const auto run = sim.run();
    point.accepted_throughput = run.accepted_throughput;
    point.deadlocked = run.deadlocked;
    point.credit_stall_cycles = run.credit_stall_cycles;
    point.peak_buffer_flits = run.peak_buffer_flits;
    point.sustained = !run.deadlocked &&
                      run.accepted_throughput >=
                          config.sustain_fraction * config.probe_load;
  };
  if (pool != nullptr && config.buffer_sizes.size() > 1) {
    pool->parallel_for(0, config.buffer_sizes.size(), probe_at);
  } else {
    for (std::size_t i = 0; i < config.buffer_sizes.size(); ++i) probe_at(i);
  }

  for (const auto& point : result.points) {
    if (point.sustained) {
      result.min_flits_nonblocking = point.buffer_flits;
      break;
    }
  }
  return result;
}

BufferMarginResult buffer_margin_bisect(
    const std::shared_ptr<const routing::NextHop>& routes,
    const sim::TrafficPattern& traffic, const BufferMarginConfig& config,
    std::uint32_t shards) {
  NBCLOS_REQUIRE(!config.buffer_sizes.empty(),
                 "buffer-margin bisection needs at least one depth");
  for (std::size_t i = 1; i < config.buffer_sizes.size(); ++i) {
    NBCLOS_REQUIRE(config.buffer_sizes[i - 1] < config.buffer_sizes[i],
                   "buffer depths must be strictly ascending");
  }
  NBCLOS_REQUIRE(config.probe_load > 0.0 && config.probe_load <= 1.0,
                 "probe load must be in (0, 1]");
  NBCLOS_REQUIRE(
      config.sustain_fraction > 0.0 && config.sustain_fraction <= 1.0,
      "sustain fraction must be in (0, 1]");
  NBCLOS_REQUIRE(shards >= 1, "shard count must be >= 1");

  obs::ScopedSpan span("flow.buffer_margin_bisect", "sweep");
  span.arg("depths", static_cast<double>(config.buffer_sizes.size()));
  span.arg("shards", static_cast<double>(shards));
  const std::uint32_t floor_depth = min_feasible_depth(config.base);

  const auto probe_at = [&](std::size_t i) {
    BufferMarginPoint point;
    point.buffer_flits = config.buffer_sizes[i];
    if (point.buffer_flits < floor_depth) {
      point.feasible = false;
      return point;
    }
    flow::FlowConfig probe = config.base;
    probe.buffer_flits = point.buffer_flits;
    probe.injection_rate = config.probe_load;
    flow::ShardedFlowSim sim(routes, traffic, probe, shards);
    const auto run = sim.run();
    point.accepted_throughput = run.accepted_throughput;
    point.deadlocked = run.deadlocked;
    point.credit_stall_cycles = run.credit_stall_cycles;
    point.peak_buffer_flits = run.peak_buffer_flits;
    point.sustained = !run.deadlocked &&
                      run.accepted_throughput >=
                          config.sustain_fraction * config.probe_load;
    return point;
  };

  // Lower-bound search for the first sustained index; probed points are
  // kept so callers still see throughput/stall evidence for the margin
  // and its infeasible/unsustained neighbors.
  BufferMarginResult result;
  std::vector<std::pair<std::size_t, BufferMarginPoint>> probed;
  std::size_t lo = 0;
  std::size_t hi = config.buffer_sizes.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto point = probe_at(mid);
    probed.emplace_back(mid, point);
    if (point.sustained) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo < config.buffer_sizes.size()) {
    result.min_flits_nonblocking = config.buffer_sizes[lo];
    // The boundary itself may have been probed only as a midpoint of an
    // earlier iteration; ensure its evidence is present.
    const bool have_boundary =
        std::any_of(probed.begin(), probed.end(),
                    [&](const auto& e) { return e.first == lo; });
    if (!have_boundary) probed.emplace_back(lo, probe_at(lo));
  }
  std::sort(probed.begin(), probed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  result.points.reserve(probed.size());
  for (auto& [index, point] : probed) result.points.push_back(point);
  return result;
}

}  // namespace nbclos::analysis
