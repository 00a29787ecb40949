/// \file nbbench.cpp
/// \brief Workload runner of the repository benchmark (perfbench/run.py).
///
///   nbbench --workload <flow|verify_ftree|packet_sweep>
///           --seed S --seconds T --trace 0|1
///
/// Runs one user workflow through the library's public API, the way
/// tools/nbclos_cli.cpp does, over and over until T seconds have passed,
/// and prints one JSON document on stdout: every iteration's host times
/// and simulated outputs, plus (with --trace 1) a per-layer breakdown of
/// the traced iterations.  run.py turns that into the benchmark's result
/// line and checks the outputs.
///
/// Every layer call is wrapped from outside by `timed`: an
/// obs::ScopedSpan (so the call shows up in an obs::TraceSession) plus a
/// steady_clock self-time account per layer.  With --trace 1 the
/// iterations alternate untraced / traced; only traced iterations run
/// inside a TraceSession and report layer metrics, so the two sets of
/// wall times give the tracing overhead.  Layer probes that are not part
/// of the workflow (next-hop micro-timing, the verify route-cache build)
/// run after a traced iteration's clock has stopped.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nbclos/analysis/parallel.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/buffer_margin.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/flow/route_source.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/oracle.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/traffic.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/prng.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using Values = std::vector<std::pair<std::string, double>>;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- layer accounting ------------------------------------------------

/// The library modules a workload calls into; self time is kept per
/// layer and whatever no span covers is reported as unattributed.
enum class Layer : std::uint8_t { kTopology, kRouting, kUtil, kSim, kFlow, kAnalysis };
constexpr std::array<const char*, 6> kLayerNames = {
    "topology", "routing", "util", "sim", "flow", "analysis"};

/// Self-time ledger of one iteration.  Spans nest on the calling thread
/// only (every layer call is made from main), so a plain stack suffices.
class LayerLedger {
 public:
  void open() { child_s_.push_back(0.0); }
  void close(Layer layer, double seconds) {
    const double children = child_s_.back();
    child_s_.pop_back();
    self_s_[static_cast<std::size_t>(layer)] += seconds - children;
    if (!child_s_.empty()) child_s_.back() += seconds;
  }
  /// Move `seconds` of one layer's self time to another — used where an
  /// engine's own wall counter says how much of a span ran in a deeper
  /// layer the benchmark cannot wrap from outside.
  void reattribute(Layer from, Layer to, double seconds) {
    self_s_[static_cast<std::size_t>(from)] -= seconds;
    self_s_[static_cast<std::size_t>(to)] += seconds;
  }
  [[nodiscard]] double self_s(Layer layer) const {
    return self_s_[static_cast<std::size_t>(layer)];
  }

 private:
  std::array<double, kLayerNames.size()> self_s_{};
  std::vector<double> child_s_;
};

/// Time one call into `layer` under a trace span named `name` (a string
/// literal: the trace stores the pointer).  Returns the call's seconds.
template <class Fn>
double timed(LayerLedger& ledger, Layer layer, const char* name, Fn&& fn) {
  ledger.open();
  const auto start = Clock::now();
  {
    nbclos::obs::ScopedSpan span(name, "bench");
    fn();
  }
  const double elapsed = seconds_since(start);
  ledger.close(layer, elapsed);
  return elapsed;
}

// --- metrics snapshot helpers ----------------------------------------

class Snapshot {
 public:
  Snapshot() : samples_(nbclos::obs::metrics().snapshot()) {}
  [[nodiscard]] double count(const std::string& name) const {
    const auto* s = find(name);
    return s == nullptr ? 0.0 : static_cast<double>(s->count);
  }
  [[nodiscard]] double gauge(const std::string& name) const {
    const auto* s = find(name);
    return s == nullptr ? 0.0 : static_cast<double>(s->gauge);
  }
  [[nodiscard]] double p50(const std::string& name) const {
    const auto* s = find(name);
    return s == nullptr ? 0.0 : s->p50;
  }

 private:
  [[nodiscard]] const nbclos::obs::MetricSample* find(
      const std::string& name) const {
    for (const auto& s : samples_) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
  std::vector<nbclos::obs::MetricSample> samples_;
};

double gauge_max(const char* name) {
  return static_cast<double>(nbclos::obs::metrics().gauge(name).max());
}

// --- iteration record --------------------------------------------------

/// kSetupOnly stops after the set-up phase (extra set-up samples);
/// kTraced also fills Iteration::layers and runs the layer probes.
enum class Mode : std::uint8_t { kSetupOnly, kUntraced, kTraced };

struct Iteration {
  bool traced = false;
  double wall_s = 0.0;   ///< first topology build -> last result
  double setup_s = 0.0;  ///< first topology build -> first scored work
  double work = 0.0;     ///< terminal-cycles simulated or permutations scored
  double work_s = 0.0;   ///< host seconds of the scored calls
  Values outputs;        ///< simulated results, checked by run.py
  Values layers;         ///< traced iterations only
};

/// Per-layer metrics every workload reports (0 where a layer is unused),
/// in the order BENCHMARK.json lists them.
constexpr std::array<const char*, 32> kLayerMetrics = {
    "topology.build_s",
    "routing.cache_build_s",
    "routing.cache_builds",
    "routing.cache_bytes",
    "routing.next_hop_ns.pure",
    "routing.next_hop_ns.cache",
    "flow.ctor_s",
    "flow.arena_bytes",
    "flow.peak_slab_slots",
    "flow.run_s",
    "flow.ns_per_flit_hop",
    "flow.flit_hops",
    "flow.route_lookups",
    "flow.credit_stall_cycles",
    "flow.vc_stall_cycles",
    "flow.cross_shard_flits",
    "flow.cross_shard_credits",
    "flow.mailbox_peak",
    "analysis.bisect_s",
    "analysis.bisect_probes",
    "analysis.random_factory_s",
    "analysis.random_batched_s",
    "analysis.adversarial_s",
    "analysis.worst_case_s",
    "analysis.perms_evaluated",
    "sim.run_s",
    "sim.flit_hops",
    "sim.ns_per_flit_hop",
    "sim.phase.arrivals_ns",
    "sim.phase.transmissions_ns",
    "sim.phase.injection_ns",
    "sim.oracle.calls"};

/// Layer values of one traced iteration: starts with every metric at 0,
/// then the workload fills what it measured.
class LayerValues {
 public:
  LayerValues() {
    for (const char* name : kLayerMetrics) values_.emplace_back(name, 0.0);
  }
  void set(const std::string& name, double value) {
    for (auto& [key, v] : values_) {
      if (key == name) {
        v = value;
        return;
      }
    }
    throw std::logic_error("unknown layer metric " + name);
  }
  /// Self time per layer plus the uncovered remainder of `wall_s`.
  Values finish(const LayerLedger& ledger, double wall_s) {
    Values out = values_;
    double covered = 0.0;
    for (std::size_t i = 0; i < kLayerNames.size(); ++i) {
      const double self = ledger.self_s(static_cast<Layer>(i));
      out.emplace_back(std::string(kLayerNames[i]) + ".self_s", self);
      covered += self;
    }
    out.emplace_back("unattributed_s", wall_s - covered);
    out.emplace_back("traced_wall_s", wall_s);
    return out;
  }

 private:
  Values values_;
};

// --- shared inputs -----------------------------------------------------

/// Seeded derangement by Sattolo's shuffle: one random cycle through all
/// terminals, so every terminal sends and none sends to itself.
nbclos::Permutation derangement(std::uint32_t terminals, std::uint64_t seed) {
  std::vector<std::uint32_t> target(terminals);
  std::iota(target.begin(), target.end(), 0u);
  nbclos::Xoshiro256 rng(seed);
  for (std::uint32_t i = terminals - 1; i > 0; --i) {
    std::swap(target[i], target[rng.below(i)]);
  }
  return nbclos::permutation_from_targets(target);
}

/// ChannelRouteCache over a single-path ftree routing (the CLI's build).
std::shared_ptr<const nbclos::routing::ChannelRouteCache> channel_cache(
    const nbclos::Network& net, const nbclos::FoldedClos& ft,
    const nbclos::SinglePathRouting& routing) {
  return std::make_shared<const nbclos::routing::ChannelRouteCache>(
      net, [&](nbclos::SDPair sd) {
        nbclos::LinkId run[nbclos::FoldedClos::kMaxPathLinks];
        const auto count = ft.links_into(routing.route(sd), run);
        std::vector<std::uint32_t> channels;
        for (std::uint32_t k = 0; k < count; ++k) channels.push_back(run[k].value);
        return channels;
      });
}

/// Next-hop micro-timing: ns per RouteSource::next_channel_from call over
/// every hop of a seeded sample of the workload's own (src, dst) pairs.
/// Median of 5 timed passes of at least 20 ms each; a pass whose result
/// checksum differs from the path walk's throws.
double next_hop_ns(const nbclos::flow::RouteSource& routes,
                   const nbclos::Permutation& pairs, std::uint64_t seed) {
  const nbclos::Network& net = routes.network();
  const auto terminal_vertex = net.terminals();
  struct Triple {
    std::uint32_t vertex, src, dst;
  };
  std::vector<Triple> triples;
  std::uint64_t expected = 0;
  nbclos::Xoshiro256 rng(seed ^ 0x6e657874686f70ull);
  for (int i = 0; i < 4096; ++i) {
    const auto& sd = pairs[rng.below(pairs.size())];
    const std::uint32_t src = terminal_vertex[sd.src.value];
    const std::uint32_t dst = terminal_vertex[sd.dst.value];
    for (std::uint32_t at = src; at != dst;) {
      const std::uint32_t c = routes.next_channel_from(at, src, dst);
      triples.push_back({at, src, dst});
      expected += c;
      at = net.channel_dst(c);
    }
  }
  std::size_t passes = 1;
  std::vector<double> per_call;
  while (per_call.size() < 5) {
    const auto start = Clock::now();
    std::uint64_t sum = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& t : triples) {
        sum += routes.next_channel_from(t.vertex, t.src, t.dst);
      }
    }
    const double elapsed = seconds_since(start);
    if (sum != expected * passes) {
      throw std::runtime_error("next-hop probe disagrees with the path walk");
    }
    if (elapsed < 0.02) {
      passes *= 2;
      continue;
    }
    per_call.push_back(elapsed * 1e9 /
                       static_cast<double>(passes * triples.size()));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// --- workloads -----------------------------------------------------------

/// flow: the two flow-control workflows, set up one after the other and
/// then run one after the other, each taking about half the time.
///  - k-ary: serial FlowSim on the 10-ary 4-tree (10^4 terminals), pure
///    d-mod-k next hops, shift-by-11 traffic, 4-flit wormhole packets with
///    credits and 8-flit buffers, counter injection at load 0.05.
///  - margin: buffer_margin_bisect on ftree(4+16, 32) with Theorem 3
///    routes through a ChannelRouteCache, a seeded derangement, probe load
///    0.9 over depths {1,2,4,8,16}, wormhole then VCT, 2 shards per probe.
/// They share one workload because each alone spread too much from run
/// to run on a shared host; the per-layer metrics keep them apart.
Iteration flow(std::uint64_t seed, Mode mode) {
  constexpr std::uint32_t kK = 10, kH = 4;
  constexpr std::uint32_t kN = 4, kR = 32, kShards = 2;
  Iteration it;
  LayerLedger ledger;
  nbclos::flow::FlowConfig config;
  config.injection_rate = 0.05;
  config.packet_flits = 4;
  config.buffer_flits = 8;
  config.switching = nbclos::flow::Switching::kWormhole;
  config.backpressure = nbclos::flow::Backpressure::kCredit;
  config.counter_injection = true;
  config.warmup_cycles = 100;
  config.measure_cycles = 1900;
  config.seed = seed;
  nbclos::analysis::BufferMarginConfig margin;
  margin.buffer_sizes = {1, 2, 4, 8, 16};
  margin.probe_load = 0.9;
  margin.base.packet_flits = 4;
  margin.base.warmup_cycles = 500;
  margin.base.measure_cycles = 1500;
  margin.base.seed = seed;

  const auto start = Clock::now();
  // k-ary set-up: topology, pure route source, traffic, engine.
  std::optional<nbclos::Network> kary_net;
  double topo_s = timed(ledger, Layer::kTopology, "topology.build_kary",
                        [&] { kary_net = nbclos::build_kary_ntree(kK, kH); });
  std::shared_ptr<const nbclos::flow::RouteSource> pure;
  timed(ledger, Layer::kRouting, "routing.pure_source", [&] {
    pure = std::make_shared<const nbclos::flow::PureRouteSource>(
        *kary_net, std::make_shared<const nbclos::sim::KaryDmodkRouter>(*kary_net, kK, kH));
  });
  const auto kary_terminals = static_cast<std::uint32_t>(kary_net->terminals().size());
  nbclos::Permutation kary_pairs;
  std::optional<nbclos::sim::TrafficPattern> kary_traffic;
  timed(ledger, Layer::kSim, "sim.traffic", [&] {
    kary_pairs = nbclos::shift_permutation(kary_terminals, kK + 1);
    kary_traffic = nbclos::sim::TrafficPattern::permutation(kary_pairs, kary_terminals);
  });
  std::optional<nbclos::flow::FlowSim> sim;
  const double ctor_s = timed(ledger, Layer::kFlow, "flow.ctor",
                              [&] { sim.emplace(pure, *kary_traffic, config); });
  // Margin set-up: topology, Theorem 3 route cache, traffic.
  std::optional<nbclos::FoldedClos> ft;
  std::optional<nbclos::Network> net;
  topo_s += timed(ledger, Layer::kTopology, "topology.build_ftree", [&] {
    ft.emplace(nbclos::FtreeParams{kN, kN * kN, kR});
    net = nbclos::build_network(*ft);
  });
  std::shared_ptr<const nbclos::routing::ChannelRouteCache> cache;
  const double cache_s = timed(ledger, Layer::kRouting, "routing.cache_build", [&] {
    const nbclos::YuanNonblockingRouting yuan(*ft);
    cache = channel_cache(*net, *ft, yuan);
  });
  const auto terminals = static_cast<std::uint32_t>(net->terminals().size());
  nbclos::Permutation pairs;
  std::optional<nbclos::sim::TrafficPattern> traffic;
  timed(ledger, Layer::kSim, "sim.traffic", [&] {
    pairs = derangement(terminals, seed);
    traffic = nbclos::sim::TrafficPattern::permutation(pairs, terminals);
  });
  it.setup_s = seconds_since(start);
  if (mode == Mode::kSetupOnly) return it;

  nbclos::flow::FlowResult result;
  const double kary_run_s =
      timed(ledger, Layer::kFlow, "flow.run", [&] { result = sim->run(); });
  const double kary_engine_s =
      static_cast<double>(nbclos::obs::metrics().counter("flow.wall_us").value()) * 1e-6;
  it.outputs = {{"kary.offered_load", result.offered_load},
                {"kary.accepted_throughput", result.accepted_throughput},
                {"kary.injected_packets", static_cast<double>(result.injected_packets)},
                {"kary.delivered_packets", static_cast<double>(result.delivered_packets)},
                {"kary.mean_latency", result.mean_latency},
                {"kary.p50_latency", result.p50_latency},
                {"kary.p99_latency", result.p99_latency},
                {"kary.p999_latency", result.p999_latency},
                {"kary.deadlocked", result.deadlocked ? 1.0 : 0.0}};

  double bisect_s = 0.0;
  std::uint64_t margin_cycles = 0;
  for (const auto switching : {nbclos::flow::Switching::kWormhole,
                               nbclos::flow::Switching::kVirtualCutThrough}) {
    const bool vct = switching == nbclos::flow::Switching::kVirtualCutThrough;
    margin.base.switching = switching;
    nbclos::analysis::BufferMarginResult bisected;
    bisect_s += timed(ledger, Layer::kAnalysis, "analysis.bisect", [&] {
      bisected = nbclos::analysis::buffer_margin_bisect(cache, *traffic, margin, kShards);
    });
    const std::string prefix = vct ? "margin.vct" : "margin.wormhole";
    it.outputs.emplace_back(prefix + ".margin_flits",
                            static_cast<double>(bisected.min_flits_nonblocking));
    for (const auto& point : bisected.points) {
      const std::string key = prefix + ".depth" + std::to_string(point.buffer_flits);
      it.outputs.emplace_back(key + ".accepted", point.accepted_throughput);
      it.outputs.emplace_back(key + ".sustained", point.sustained ? 1.0 : 0.0);
      if (point.feasible) {
        margin_cycles += margin.base.warmup_cycles + margin.base.measure_cycles;
      }
    }
  }
  it.wall_s = seconds_since(start);
  it.work_s = kary_run_s + bisect_s;
  it.work = static_cast<double>(kary_terminals) *
                static_cast<double>(config.warmup_cycles + config.measure_cycles) +
            static_cast<double>(terminals) * static_cast<double>(margin_cycles);
  it.outputs.emplace_back("margin.offered_load", margin.probe_load);
  if (mode != Mode::kTraced) return it;

  const Snapshot snap;
  // The sharded engines' own wall counter says how much of the bisect
  // spans ran in the flow layer.
  const double margin_engine_s = snap.count("flow.wall_us") * 1e-6 - kary_engine_s;
  ledger.reattribute(Layer::kAnalysis, Layer::kFlow, margin_engine_s);
  const auto arena = sim->arena_stats();
  LayerValues lv;
  lv.set("topology.build_s", topo_s);
  lv.set("routing.cache_build_s", cache_s);
  lv.set("routing.cache_builds", snap.count("route_cache.builds"));
  lv.set("routing.cache_bytes", snap.gauge("route_cache.bytes"));
  lv.set("routing.next_hop_ns.pure", next_hop_ns(*pure, kary_pairs, seed));
  lv.set("routing.next_hop_ns.cache",
         next_hop_ns(nbclos::flow::CacheRouteSource(cache), pairs, seed));
  lv.set("flow.ctor_s", ctor_s);
  lv.set("flow.arena_bytes",
         std::max(static_cast<double>(arena.flit_arena_bytes + arena.packet_arena_bytes),
                  gauge_max("flow.buffer.pool_bytes")));
  lv.set("flow.peak_slab_slots", static_cast<double>(arena.peak_slots));
  const double engine_s = kary_run_s + margin_engine_s;
  const double hops = snap.count("flow.flits.transmitted");
  lv.set("flow.run_s", engine_s);
  lv.set("flow.flit_hops", hops);
  lv.set("flow.ns_per_flit_hop", hops > 0 ? engine_s * 1e9 / hops : 0.0);
  lv.set("flow.route_lookups", snap.count("flow.route.lookups"));
  lv.set("flow.credit_stall_cycles", snap.count("flow.stall.credit_cycles"));
  lv.set("flow.vc_stall_cycles", snap.count("flow.stall.vc_cycles"));
  lv.set("flow.cross_shard_flits", snap.count("flow.sharded.cross_shard_flits"));
  lv.set("flow.cross_shard_credits",
         snap.count("flow.sharded.cross_shard_credits"));
  lv.set("flow.mailbox_peak", gauge_max("flow.sharded.mailbox_peak"));
  lv.set("analysis.bisect_s", bisect_s);
  lv.set("analysis.bisect_probes", snap.count("flow.sharded.runs"));
  it.layers = lv.finish(ledger, it.wall_s);
  return it;
}

/// verify_ftree: the `nbclos verify` calls on ftree(8+64, 64) over a
/// 2-thread pool — random (factory and batched overloads) and
/// adversarial with Theorem 3 routing, worst-case search with d-mod-k.
Iteration verify_ftree(std::uint64_t seed, Mode mode) {
  constexpr std::uint32_t kN = 8, kR = 64, kThreads = 2;
  constexpr std::uint64_t kTrials = 20000;
  Iteration it;
  LayerLedger ledger;
  nbclos::AdversarialOptions adversarial;
  adversarial.restarts = 8;
  adversarial.steps_per_restart = 16000;

  const auto start = Clock::now();
  std::optional<nbclos::FoldedClos> ft;
  const double topo_s = timed(ledger, Layer::kTopology, "topology.build_ftree",
                              [&] { ft.emplace(nbclos::FtreeParams{kN, kN * kN, kR}); });
  std::unique_ptr<nbclos::SinglePathRouting> thm3, dmodk;
  timed(ledger, Layer::kRouting, "routing.setup", [&] {
    thm3 = std::make_unique<nbclos::YuanNonblockingRouting>(*ft);
    dmodk = std::make_unique<nbclos::DModKRouting>(*ft);
  });
  std::optional<nbclos::ThreadPool> pool;
  timed(ledger, Layer::kUtil, "util.thread_pool", [&] { pool.emplace(kThreads); });
  it.setup_s = seconds_since(start);
  if (mode == Mode::kSetupOnly) return it;

  const auto factory = [&](std::uint64_t) { return nbclos::as_pattern_router(*thm3); };
  nbclos::VerifyResult random_factory, random_batched, adv;
  nbclos::WorstCaseResult worst;
  const double factory_s = timed(ledger, Layer::kAnalysis, "analysis.random_factory", [&] {
    random_factory = nbclos::verify_random_parallel(*ft, factory, kTrials, seed, *pool);
  });
  const double batched_s = timed(ledger, Layer::kAnalysis, "analysis.random_batched", [&] {
    random_batched = nbclos::verify_random_parallel(*ft, *thm3, kTrials, seed, *pool);
  });
  const double adversarial_s = timed(ledger, Layer::kAnalysis, "analysis.adversarial", [&] {
    adv = nbclos::verify_adversarial_parallel(*ft, *thm3, adversarial, seed, *pool);
  });
  const double worst_s = timed(ledger, Layer::kAnalysis, "analysis.worst_case", [&] {
    worst = nbclos::worst_case_search_parallel(*ft, *dmodk, adversarial, seed, *pool);
  });
  it.wall_s = seconds_since(start);
  it.work_s = factory_s + batched_s + adversarial_s + worst_s;
  it.work = static_cast<double>(random_factory.permutations_checked +
                                random_batched.permutations_checked +
                                adv.permutations_checked + worst.evaluations);
  it.outputs = {
      {"thm3.random_factory.nonblocking", random_factory.nonblocking ? 1.0 : 0.0},
      {"thm3.random_factory.checked",
       static_cast<double>(random_factory.permutations_checked)},
      {"thm3.random_batched.nonblocking", random_batched.nonblocking ? 1.0 : 0.0},
      {"thm3.random_batched.checked",
       static_cast<double>(random_batched.permutations_checked)},
      {"thm3.adversarial.nonblocking", adv.nonblocking ? 1.0 : 0.0},
      {"thm3.adversarial.checked", static_cast<double>(adv.permutations_checked)},
      {"dmodk.worst_case.collisions", static_cast<double>(worst.collisions)},
      {"dmodk.worst_case.evaluations", static_cast<double>(worst.evaluations)}};
  if (mode != Mode::kTraced) return it;

  const Snapshot snap;
  LayerValues lv;
  lv.set("topology.build_s", topo_s);
  // The verify calls materialize their RouteCaches inside the timed
  // region (count and bytes are in the snapshot); build one more here to
  // time a single build alone.
  const auto cache_start = Clock::now();
  static_cast<void>(nbclos::routing::RouteCache::materialize(*thm3));
  lv.set("routing.cache_build_s", seconds_since(cache_start));
  lv.set("routing.cache_builds", snap.count("route_cache.builds"));
  lv.set("routing.cache_bytes", snap.gauge("route_cache.bytes"));
  lv.set("analysis.random_factory_s", factory_s);
  lv.set("analysis.random_batched_s", batched_s);
  lv.set("analysis.adversarial_s", adversarial_s);
  lv.set("analysis.worst_case_s", worst_s);
  lv.set("analysis.perms_evaluated", snap.count("verify.perms_evaluated"));
  it.layers = lv.finish(ledger, it.wall_s);
  return it;
}

/// packet_sweep: the parallel OracleFactory load_sweep of PacketSim on
/// ftree(4+16, 64) under a seeded derangement, d-mod-k and least-queue
/// adaptive FtreeOracle at rates {0.3, 0.6, 0.9, 1.0}, 2-thread pool.
Iteration packet_sweep(std::uint64_t seed, Mode mode) {
  constexpr std::uint32_t kN = 4, kR = 64, kThreads = 2;
  const std::vector<double> rates = {0.3, 0.6, 0.9, 1.0};
  Iteration it;
  LayerLedger ledger;
  nbclos::sim::SimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 1500;
  config.seed = seed;

  const auto start = Clock::now();
  std::optional<nbclos::FoldedClos> ft;
  std::optional<nbclos::Network> net;
  const double topo_s = timed(ledger, Layer::kTopology, "topology.build_ftree", [&] {
    ft.emplace(nbclos::FtreeParams{kN, kN * kN, kR});
    net = nbclos::build_network(*ft);
  });
  const auto terminals = static_cast<std::uint32_t>(net->terminals().size());
  std::optional<nbclos::sim::TrafficPattern> traffic;
  timed(ledger, Layer::kSim, "sim.traffic", [&] {
    traffic = nbclos::sim::TrafficPattern::permutation(derangement(terminals, seed),
                                                       terminals);
  });
  std::optional<nbclos::ThreadPool> pool;
  timed(ledger, Layer::kUtil, "util.thread_pool", [&] { pool.emplace(kThreads); });
  it.setup_s = seconds_since(start);
  if (mode == Mode::kSetupOnly) return it;

  std::size_t runs = 0;
  for (const auto policy :
       {nbclos::sim::UplinkPolicy::kDModK, nbclos::sim::UplinkPolicy::kLeastQueue}) {
    const nbclos::sim::OracleFactory factory = [&ft, policy](std::uint64_t run_seed,
                                                             nbclos::fault::DegradedView*) {
      return std::make_unique<nbclos::sim::FtreeOracle>(*ft, policy, nullptr, run_seed);
    };
    std::vector<nbclos::sim::SimResult> results;
    it.work_s += timed(ledger, Layer::kSim, "sim.load_sweep", [&] {
      results = nbclos::sim::load_sweep(*net, factory, *traffic, config, rates, &*pool);
    });
    const std::string name =
        policy == nbclos::sim::UplinkPolicy::kDModK ? "dmodk" : "adaptive";
    for (std::size_t i = 0; i < rates.size(); ++i) {
      std::ostringstream key;
      key << name << ".rate" << rates[i] << ".accepted";
      it.outputs.emplace_back(key.str(), results[i].accepted_throughput);
    }
    runs += results.size();
  }
  it.wall_s = seconds_since(start);
  it.work = static_cast<double>(terminals) * static_cast<double>(runs) *
            static_cast<double>(config.warmup_cycles + config.measure_cycles);
  if (mode != Mode::kTraced) return it;

  const Snapshot snap;
  LayerValues lv;
  lv.set("topology.build_s", topo_s);
  const double engine_s = snap.count("sim.wall_us") * 1e-6;
  const double hops = snap.count("sim.link.busy_flit_cycles");
  lv.set("sim.run_s", engine_s);
  lv.set("sim.flit_hops", hops);
  lv.set("sim.ns_per_flit_hop", hops > 0 ? engine_s * 1e9 / hops : 0.0);
  lv.set("sim.phase.arrivals_ns", snap.p50("sim.phase.arrivals_ns"));
  lv.set("sim.phase.transmissions_ns", snap.p50("sim.phase.transmissions_ns"));
  lv.set("sim.phase.injection_ns", snap.p50("sim.phase.injection_ns"));
  lv.set("sim.oracle.calls", snap.count("sim.oracle.calls"));
  it.layers = lv.finish(ledger, it.wall_s);
  return it;
}

// --- main ------------------------------------------------------------------

void write_values(std::ostream& out, const Values& values) {
  out << "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << values[i].first << "\": " << values[i].second;
  }
  out << "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::cerr << "usage: nbbench --workload <flow|verify_ftree|packet_sweep> "
               "--seed S --seconds T --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value == "1";
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }

  std::function<Iteration(std::uint64_t, Mode)> run_once;
  if (workload == "flow") {
    run_once = flow;
  } else if (workload == "verify_ftree") {
    run_once = verify_ftree;
  } else if (workload == "packet_sweep") {
    run_once = packet_sweep;
  } else {
    return usage();
  }

  // Each round repeats the set-up phase alone for a tenth of the last
  // iteration's wall time (1 to 50 times), then runs one whole iteration.
  // Set-up samples are thus spread over the run like the iterations, and
  // set-up gets many samples even where it takes microseconds.  Rounds go on
  // while the next one would end at most half a round past the budget,
  // with at least one iteration of each kind (run.py pools 4 processes);
  // traced runs alternate untraced and traced iterations.
  constexpr std::size_t kMaxSetupsPerRound = 50, kMinPerKind = 1;
  std::vector<double> setup_samples;
  std::vector<Iteration> iterations;
  std::size_t traced_count = 0;
  double last_round_s = 0.0;
  const auto budget_start = Clock::now();
  try {
    while (true) {
      const std::size_t untraced_count = iterations.size() - traced_count;
      const bool enough = untraced_count >= kMinPerKind &&
                          (!trace || traced_count >= kMinPerKind);
      if (enough && seconds_since(budget_start) + 0.5 * last_round_s >= seconds) {
        break;
      }
      const double setup_budget_s =
          iterations.empty() ? 0.0 : 0.1 * iterations.back().wall_s;
      const auto round_start = Clock::now();
      for (std::size_t i = 0; i < kMaxSetupsPerRound; ++i) {
        setup_samples.push_back(run_once(seed, Mode::kSetupOnly).setup_s);
        if (seconds_since(round_start) >= setup_budget_s) break;
      }
      const bool traced = trace && iterations.size() % 2 == 1;
      nbclos::obs::metrics().reset();
      if (traced) nbclos::obs::TraceSession::start();
      iterations.push_back(run_once(seed, traced ? Mode::kTraced : Mode::kUntraced));
      iterations.back().traced = traced;
      setup_samples.push_back(iterations.back().setup_s);
      if (traced) {
        nbclos::obs::TraceSession::stop();
        ++traced_count;
      }
      last_round_s = seconds_since(round_start);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"peak_rss_mb\": " << peak_rss_mb() << ", \"setup_samples_s\": [";
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    json << (i > 0 ? ", " : "") << setup_samples[i];
  }
  json << "], \"iterations\": [";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    const auto& it = iterations[i];
    json << (i > 0 ? ", " : "") << "{\"traced\": " << (it.traced ? "true" : "false")
         << ", \"wall_s\": " << it.wall_s << ", \"setup_s\": " << it.setup_s
         << ", \"work\": " << it.work << ", \"work_s\": " << it.work_s
         << ", \"outputs\": ";
    write_values(json, it.outputs);
    json << ", \"layers\": ";
    write_values(json, it.layers);
    json << "}";
  }
  json << "]}";
  std::cout << json.str() << std::endl;
  return 0;
}
