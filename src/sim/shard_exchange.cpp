#include "nbclos/sim/shard_exchange.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace nbclos::sim {

namespace {
constexpr std::uint32_t kMaxShards = 64;

// ShardSync::state_ layout: participants in the high word, arrivals in
// the low word.
constexpr std::uint64_t kArrivalMask = 0xFFFF'FFFFULL;
constexpr std::uint64_t kOneParticipant = std::uint64_t{1} << 32;
/// Poll rounds (one `yield` each) before a barrier waiter parks.
constexpr std::uint32_t kYieldPolls = 256;

/// Parse a sysfs cpulist ("0-3,8,10-11") into cpu ids.  Malformed input
/// yields an empty list (callers fall back to the flat topology).
std::vector<std::uint32_t> parse_cpulist(const std::string& text) {
  std::vector<std::uint32_t> cpus;
  std::stringstream stream(text);
  std::string range;
  while (std::getline(stream, range, ',')) {
    if (range.empty()) continue;
    const auto dash = range.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(static_cast<std::uint32_t>(std::stoul(range)));
      } else {
        const auto lo =
            static_cast<std::uint32_t>(std::stoul(range.substr(0, dash)));
        const auto hi =
            static_cast<std::uint32_t>(std::stoul(range.substr(dash + 1)));
        for (std::uint32_t c = lo; c <= hi && c - lo < 4096; ++c) {
          cpus.push_back(c);
        }
      }
    } catch (...) {
      return {};
    }
  }
  return cpus;
}

}  // namespace

ShardPlan ShardPlan::build(const Network& net, std::uint32_t shards) {
  NBCLOS_REQUIRE(net.finalized(), "network must be finalized");
  NBCLOS_REQUIRE(shards >= 1, "shard count must be >= 1");
  ShardPlan plan;
  const std::uint32_t vertices = net.vertex_count();
  plan.shard_count =
      std::min({shards, kMaxShards, std::max<std::uint32_t>(vertices, 1)});
  const std::uint32_t shard_count = plan.shard_count;

  // Bucket the vertices by level, keeping id order inside each level.
  std::uint32_t levels = 0;
  for (std::uint32_t v = 0; v < vertices; ++v) {
    levels = std::max(levels, net.vertex(v).level + 1);
  }
  std::vector<std::vector<std::uint32_t>> by_level(levels);
  for (std::uint32_t v = 0; v < vertices; ++v) {
    by_level[net.vertex(v).level].push_back(v);
  }

  // Cut every level at equal out-channel prefix shares: shard s takes the
  // level's vertices from the first one whose prefix reaches C * s / S.
  plan.vertex_owner.assign(vertices, 0);
  std::vector<std::uint64_t> prefix;
  for (const auto& level : by_level) {
    prefix.assign(level.size() + 1, 0);
    for (std::size_t i = 0; i < level.size(); ++i) {
      prefix[i + 1] = prefix[i] + net.out_channels(level[i]).size();
    }
    std::size_t begin = 0;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      const std::uint64_t target = prefix.back() * (s + 1) / shard_count;
      const auto end = static_cast<std::size_t>(
          std::lower_bound(prefix.begin(), prefix.end(), target) -
          prefix.begin());
      for (std::size_t i = begin; i < end; ++i) {
        plan.vertex_owner[level[i]] = static_cast<std::uint8_t>(s);
      }
      begin = end;
    }
    for (std::size_t i = begin; i < level.size(); ++i) {
      plan.vertex_owner[level[i]] = static_cast<std::uint8_t>(shard_count - 1);
    }
  }

  // Terminals share one level and ascend in id, so the owners ascend
  // too and each shard's terminals form one contiguous range.
  const auto terminals = net.terminals();
  plan.terminal_begin.assign(shard_count + 1, 0);
  for (std::size_t t = 0; t < terminals.size(); ++t) {
    const std::uint32_t owner = plan.vertex_owner[terminals[t]];
    NBCLOS_REQUIRE(t == 0 || owner >= plan.vertex_owner[terminals[t - 1]],
                   "terminals must share one level in ascending id order");
    ++plan.terminal_begin[owner + 1];
  }
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    plan.terminal_begin[s + 1] += plan.terminal_begin[s];
  }

  const std::uint32_t channels = net.channel_count();
  plan.channel_owner.resize(channels);
  plan.channel_local.resize(channels);
  plan.shard_channels.resize(shard_count);
  for (std::uint32_t c = 0; c < channels; ++c) {
    const auto owner = plan.vertex_owner[net.channel_src(c)];
    plan.channel_owner[c] = owner;
    plan.channel_local[c] =
        static_cast<std::uint32_t>(plan.shard_channels[owner].size());
    plan.shard_channels[owner].push_back(c);
  }
  return plan;
}

ShardSync::ShardSync(std::uint32_t participants)
    : state_(std::uint64_t{participants} << 32) {
  NBCLOS_REQUIRE(participants >= 1, "a barrier needs a participant");
}

void ShardSync::arrive_and_wait() {
  // Read the generation before arriving: it cannot move until this
  // arrival lands, so a bump seen later is this phase's completion.
  const std::uint32_t gen = generation_.load(std::memory_order_acquire);
  const std::uint64_t before = state_.fetch_add(1, std::memory_order_acq_rel);
  const auto participants = static_cast<std::uint32_t>(before >> 32);
  if ((before & kArrivalMask) + 1 == participants) {
    complete_phase(participants);
    return;
  }
  for (std::uint32_t i = 0; i < kYieldPolls; ++i) {
    if (generation_.load(std::memory_order_acquire) != gen) return;
    std::this_thread::yield();
  }
  while (generation_.load(std::memory_order_acquire) == gen) {
    generation_.wait(gen, std::memory_order_acquire);
  }
}

void ShardSync::arrive_and_drop() {
  const std::uint64_t before =
      state_.fetch_sub(kOneParticipant, std::memory_order_acq_rel);
  const auto participants = static_cast<std::uint32_t>(before >> 32) - 1;
  if ((before & kArrivalMask) == participants) complete_phase(participants);
}

void ShardSync::complete_phase(std::uint32_t participants) {
  // The arrivals of this phase are all in, and nobody arrives at the next
  // one before seeing the bump, so this plain reset cannot race.
  state_.store(std::uint64_t{participants} << 32, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
}

void ShardSync::record_failure() {
  {
    const std::scoped_lock lock(mutex_);
    if (!eptr_) eptr_ = std::current_exception();
  }
  failed_.store(true, std::memory_order_relaxed);
  arrive_and_drop();
}

NumaTopology NumaTopology::detect() {
  NumaTopology topo;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<std::uint32_t> available;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (std::uint32_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) available.push_back(c);
    }
  }
  if (available.empty()) available.push_back(0);
  const std::uint32_t max_cpu = available.back();
  topo.cpu_count = static_cast<std::uint32_t>(available.size());
  topo.node_of_cpu.assign(max_cpu + 1, 0);

  std::uint32_t nodes_seen = 0;
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::ifstream file("/sys/devices/system/node/node" + std::to_string(n) +
                       "/cpulist");
    if (!file.is_open()) break;
    std::string line;
    std::getline(file, line);
    for (const auto cpu : parse_cpulist(line)) {
      if (cpu < topo.node_of_cpu.size()) topo.node_of_cpu[cpu] = n;
    }
    ++nodes_seen;
  }
  topo.node_count = std::max<std::uint32_t>(nodes_seen, 1);
#else
  topo.node_of_cpu.assign(1, 0);
#endif
  return topo;
}

std::uint32_t current_numa_node(const NumaTopology& topo) {
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu >= 0 && static_cast<std::size_t>(cpu) < topo.node_of_cpu.size()) {
    return topo.node_of_cpu[static_cast<std::size_t>(cpu)];
  }
#else
  (void)topo;
#endif
  return 0;
}

}  // namespace nbclos::sim
