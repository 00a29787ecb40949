#include "nbclos/flow/engine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "nbclos/flow/kernel.hpp"
#include "nbclos/obs/trace.hpp"

namespace nbclos::flow {

namespace detail {

ChannelFacts::ChannelFacts(const Network& net, std::uint32_t vc_per_channel)
    : vcs(vc_per_channel),
      buf_base(net.channel_count(), 0),
      is_nic(net.channel_count(), 0),
      dst(net.channel_count(), 0),
      dst_is_terminal(net.channel_count(), 0) {
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    dst[c] = net.channel_dst(c);
    dst_is_terminal[c] = net.vertex(dst[c]).kind == VertexKind::kTerminal;
    if (net.vertex(net.channel_src(c)).kind == VertexKind::kTerminal) {
      is_nic[c] = 1;
      channel_of_nic.push_back(c);
    } else {
      buf_base[c] =
          static_cast<std::uint32_t>(channel_of_switch.size()) * vcs;
      channel_of_switch.push_back(c);
    }
  }
  switch_buffers = static_cast<std::uint32_t>(channel_of_switch.size()) * vcs;
  for (std::uint32_t i = 0; i < channel_of_nic.size(); ++i) {
    buf_base[channel_of_nic[i]] = switch_buffers + i;
  }
}

obs::HistogramMetric& stall_metric() {
  return obs::metrics().histogram("flow.stall_cycles", kStallMetricCap,
                                  kStallMetricBins);
}

void finalize_forensics(DeadlockForensics& forensics) {
  auto& blocked = forensics.blocked;
  std::sort(blocked.begin(), blocked.end(),
            [](const BlockedBufferReport& a, const BlockedBufferReport& b) {
              return a.buffer < b.buffer;
            });
  constexpr std::size_t kNotBlocked = SIZE_MAX;
  const auto find = [&](std::uint32_t buffer) -> std::size_t {
    const auto it = std::lower_bound(
        blocked.begin(), blocked.end(), buffer,
        [](const BlockedBufferReport& r, std::uint32_t key) {
          return r.buffer < key;
        });
    if (it == blocked.end() || it->buffer != buffer) return kNotBlocked;
    return static_cast<std::size_t>(it - blocked.begin());
  };
  // Walk the waiting_for edges (each node has out-degree <= 1, so the
  // reachable set from any start is a rho shape: tail + at most one
  // cycle).  Three-state marking keeps the whole pass O(n).
  std::vector<std::uint8_t> state(blocked.size(), 0);  // 0 new, 1 path, 2 done
  std::vector<std::size_t> path;
  for (std::size_t s = 0; s < blocked.size() && forensics.wait_cycle.empty();
       ++s) {
    if (state[s] != 0) continue;
    path.clear();
    std::size_t i = s;
    while (i != kNotBlocked && state[i] == 0) {
      state[i] = 1;
      path.push_back(i);
      const std::uint32_t next = blocked[i].waiting_for;
      i = next == BlockedBufferReport::kWaitsOnNone ? kNotBlocked : find(next);
    }
    if (i != kNotBlocked && state[i] == 1) {
      const auto start = std::find(path.begin(), path.end(), i);
      for (auto it = start; it != path.end(); ++it) {
        blocked[*it].on_cycle = true;
        forensics.wait_cycle.push_back(blocked[*it].buffer);
      }
    }
    for (const auto p : path) state[p] = 2;
  }
  if (blocked.size() > DeadlockForensics::kMaxBlocked) {
    std::stable_partition(
        blocked.begin(), blocked.end(),
        [](const BlockedBufferReport& r) { return r.on_cycle; });
    blocked.resize(DeadlockForensics::kMaxBlocked);
    std::sort(blocked.begin(), blocked.end(),
              [](const BlockedBufferReport& a, const BlockedBufferReport& b) {
                return a.buffer < b.buffer;
              });
  }
}

}  // namespace detail

std::vector<FlowResult> flow_load_sweep(
    const std::shared_ptr<const routing::NextHop>& routes,
    const sim::TrafficPattern& traffic, const FlowConfig& base,
    const std::vector<double>& rates, ThreadPool* pool) {
  std::vector<FlowResult> results(rates.size());
  obs::ScopedSpan sweep_span("flow.load_sweep", "sweep");
  sweep_span.arg("rates", static_cast<double>(rates.size()));
  const auto run_at = [&](std::size_t i) {
    FlowConfig config = base;
    config.injection_rate = rates[i];
    FlowSim sim(routes, traffic, config);
    results[i] = sim.run();
  };
  if (pool != nullptr && rates.size() > 1) {
    pool->parallel_for(0, rates.size(), run_at);
  } else {
    for (std::size_t i = 0; i < rates.size(); ++i) run_at(i);
  }
  return results;
}

}  // namespace nbclos::flow
