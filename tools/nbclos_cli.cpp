/// \file nbclos_cli.cpp
/// \brief Command-line front end for the library: design, certify,
///        schedule, simulate, and circuit-switch — the operations a
///        cluster architect actually runs.  The commands, their arguments
///        and the usage text are declared in cli_args.cpp; `nbclos` with
///        no arguments prints the usage.
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli_args.hpp"

#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/prom_export.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/obs/series_export.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/util/json.hpp"

#include "nbclos/adaptive/router.hpp"
#include "nbclos/analysis/parallel.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/circuit/clos_switch.hpp"
#include "nbclos/core/designer.hpp"
#include "nbclos/core/fabric.hpp"
#include "nbclos/fault/sweep.hpp"
#include "nbclos/flow/sharded.hpp"
#include "nbclos/routing/next_hop.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/sharded.hpp"
#include "nbclos/topology/dot.hpp"
#include "nbclos/util/table.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace {

using nbclos::cli::Args;
using nbclos::cli::Topo;

/// Shard count of the command that ran (0 = not a sharded run) —
/// recorded in the manifest of the --metrics dump.
std::uint32_t g_manifest_shards = 0;

/// Recorder output stashed by the command that ran, written by main()
/// on exit (empty when the command has no recorder or recording was
/// not armed — still a valid, empty document).
std::vector<nbclos::obs::MergedSeries> g_series;
nbclos::obs::FlightRecorder::Config g_series_config;

void stash_recorder(const nbclos::obs::FlightRecorder& recorder) {
  g_series = recorder.merged();
  g_series_config = recorder.config();
}

/// Merged metrics snapshot as a JSON document (empty array in an
/// NBCLOS_OBS=OFF build) with the build manifest attached.
void write_metrics_json(std::ostream& out) {
  nbclos::JsonWriter json(out);
  json.begin_object().key("metrics").begin_array();
  for (const auto& sample : nbclos::obs::metrics().snapshot()) {
    json.begin_object().member("name", sample.name);
    switch (sample.kind) {
      case nbclos::obs::MetricSample::Kind::kCounter:
        json.member("kind", "counter").member("count", sample.count);
        break;
      case nbclos::obs::MetricSample::Kind::kGauge:
        json.member("kind", "gauge").member("value", sample.gauge);
        break;
      case nbclos::obs::MetricSample::Kind::kHistogram:
        json.member("kind", "histogram").member("count", sample.count);
        json.member("p50", sample.p50).member("p99", sample.p99);
        json.member("p999", sample.p999);
        json.member("bucket_width", sample.hist_bucket_width);
        break;
    }
    json.end_object();
  }
  json.end_array();
  auto manifest = nbclos::obs::RunInfo::current();
  manifest.shards = g_manifest_shards;
  manifest.peak_rss_kb = nbclos::obs::peak_rss_kb();  // after the command ran
  json.key("manifest");
  manifest.write_json(json);
  json.end_object();
  out << "\n";
}

/// The fabric a `<topo>` names, and the shift permutation every
/// simulation command drives over it.
struct Fabric {
  std::unique_ptr<nbclos::FoldedClos> ft;  ///< null for a k-ary tree
  nbclos::Network net;
  nbclos::sim::TrafficPattern traffic;
};

Fabric build_fabric(const Topo& topo) {
  Fabric fabric;
  if (topo.kary) {
    fabric.net = nbclos::build_kary_ntree(topo.k, topo.h);
  } else {
    fabric.ft = std::make_unique<nbclos::FoldedClos>(
        nbclos::FtreeParams{topo.n, topo.n * topo.n, topo.r});
    fabric.net = nbclos::build_network(*fabric.ft);
  }
  const auto terminals =
      static_cast<std::uint32_t>(fabric.net.terminals().size());
  fabric.traffic = nbclos::sim::TrafficPattern::permutation(
      nbclos::shift_permutation(terminals, topo.shift()), terminals);
  return fabric;
}

/// The single-path routing `routing` names on `ft`: thm3 or dmodk.
std::unique_ptr<nbclos::SinglePathRouting> single_path(
    const nbclos::FoldedClos& ft, const std::string& routing) {
  if (routing == "dmodk") return std::make_unique<nbclos::DModKRouting>(ft);
  return std::make_unique<nbclos::YuanNonblockingRouting>(ft);
}

/// The pure next hop of a single-path routing (thm3 or dmodk), by
/// arithmetic and with no per-pair table: d-mod-k digits on a k-ary
/// tree, the routing's top choice on an ftree.
std::shared_ptr<const nbclos::routing::NextHop> make_next_hop(
    const Topo& topo, const Fabric& fabric, const std::string& routing) {
  if (topo.kary) {
    return std::make_shared<const nbclos::sim::KaryDmodkRouter>(
        fabric.net, topo.k, topo.h);
  }
  return std::make_shared<const nbclos::routing::TopChoiceNextHop>(
      single_path(*fabric.ft, routing), fabric.net);
}

/// Routing-policy name -> stateful oracle factory for the packet engine.
/// thm3 reads the Theorem 3 routing the factory keeps alive; `ft` must
/// outlive every oracle the factory makes.
nbclos::sim::OracleFactory make_oracle_factory(const nbclos::FoldedClos& ft,
                                               const std::string& routing) {
  using nbclos::sim::UplinkPolicy;
  const UplinkPolicy policy = routing == "thm3"    ? UplinkPolicy::kTable
                              : routing == "dmodk" ? UplinkPolicy::kDModK
                              : routing == "random"
                                  ? UplinkPolicy::kRandom
                                  : UplinkPolicy::kLeastQueue;
  std::shared_ptr<const nbclos::SinglePathRouting> thm3;
  if (policy == UplinkPolicy::kTable) {
    thm3 = std::make_shared<const nbclos::YuanNonblockingRouting>(ft);
  }
  return [&ft, thm3, policy](std::uint64_t run_seed,
                             nbclos::fault::DegradedView*) {
    return std::make_unique<nbclos::sim::FtreeOracle>(ft, policy, thm3.get(),
                                                      run_seed);
  };
}

int cmd_design(const Args& args) {
  const auto radix = args["<radix>"].u32();
  const auto design = nbclos::design_for_radix(radix);
  if (!design) {
    std::cout << "no nonblocking design fits radix " << radix
              << " (need >= 6)\n";
    return 1;
  }
  std::cout << "Best two-level design for radix-" << radix << " switches: "
            << "ftree(" << design->n << "+" << design->n * design->n << ", "
            << design->switch_radix << ")\n"
            << "  ports:    " << design->ports << "\n"
            << "  switches: " << design->switches << " (radix "
            << design->switch_radix << ")\n"
            << "  links:    " << design->links << " (bidirectional)\n";
  if (args["[target_ports]"].set) {
    const auto target = args["[target_ports]"].number;
    for (std::uint32_t levels = 2; levels <= 6; ++levels) {
      const auto rec = nbclos::recursive_design(design->n, levels);
      if (rec.ports >= target) {
        std::cout << "To reach " << target << " ports: " << levels
                  << " levels, " << rec.ports << " ports, " << rec.switches
                  << " switches\n";
        return 0;
      }
    }
    std::cout << "target not reachable within 6 levels\n";
  }
  return 0;
}

/// The NonblockingFabric of `<n> [r]`, whose r defaults to the switch
/// radix n + n^2.
nbclos::NonblockingFabric fabric_of(const Args& args) {
  const auto n = args["<n>"].u32();
  return nbclos::NonblockingFabric(n, args["[r]"].set ? args["[r]"].u32()
                                                      : n + n * n);
}

int cmd_certify(const Args& args) {
  const auto n = args["<n>"].u32();
  const auto fabric = fabric_of(args);
  std::cout << "ftree(" << n << "+" << n * n << ", " << fabric.topology().r()
            << "): " << fabric.port_count() << " ports\n"
            << "Lemma 1 audit over "
            << fabric.topology().cross_pair_count() << " SD pairs: ";
  const bool ok = fabric.certify();
  std::cout << (ok ? "NONBLOCKING (proof for this instance)" : "FAILED")
            << "\n";
  return ok ? 0 : 1;
}

int cmd_schedule(const Args& args) {
  const auto n = args["<n>"].u32();
  const auto r = args["<r>"].u32();
  const nbclos::adaptive::AdaptiveParams params{
      n, r, nbclos::min_digit_width(r, n)};
  const nbclos::adaptive::NonblockingAdaptiveRouter router(params);
  nbclos::Xoshiro256 rng(1);
  std::uint32_t worst = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto pattern = nbclos::random_permutation(n * r, rng);
    worst = std::max(worst, router.route(pattern).top_switches_used);
  }
  std::cout << "NONBLOCKINGADAPTIVE on ftree(" << n << "+m, " << r
            << "), c = " << params.c << ":\n"
            << "  worst top switches over 50 random permutations: " << worst
            << "\n  deterministic requirement: n^2 = " << n * n << "\n";
  return 0;
}

int cmd_simulate(const Args& args) {
  const Topo& topo = args["<topo>"].topo;
  const double load = args["<load>"].real;
  const std::string& routing = args["<routing>"].text;
  const bool sharded = args["--shards"].set;
  g_manifest_shards = args["--shards"].u32();
  const Fabric fabric = build_fabric(topo);

  nbclos::sim::SimConfig config;
  config.injection_rate = load;
  // The sharded engine's only mode; using it on the serial path too keeps
  // the output independent of --shards.
  config.counter_injection = true;
  config.record_timeseries = !args["--timeseries-out"].text.empty();

  // A single-path routing is a pure NextHop, run on ShardedSim at any
  // shard count (one without --shards); only the random and adaptive
  // uplinks (ftree, no --shards) need a stateful oracle.
  nbclos::sim::SimResult result;
  std::string shard_note;
  std::string cross_shard;
  if (routing == "thm3" || routing == "dmodk") {
    const auto router = make_next_hop(topo, fabric, routing);
    nbclos::sim::ShardedSim sim(*router, fabric.traffic, config,
                                sharded ? args["--shards"].u32() : 1);
    result = sim.run();
    stash_recorder(sim.recorder());
    shard_note = ", " + std::to_string(sim.shard_count()) +
                 " shard(s) [results are shard-count independent]";
    cross_shard = "  cross-shard flits:   " +
                  std::to_string(sim.telemetry().cross_shard_flits) + "\n";
  } else {
    const auto factory = make_oracle_factory(*fabric.ft, routing);
    const auto oracle = factory(7, nullptr);  // FtreeOracle's default seed
    nbclos::sim::PacketSim sim(fabric.net, *oracle, fabric.traffic, config);
    result = sim.run();
    stash_recorder(sim.recorder());
  }
  std::cout << topo.name << ", " << routing << ", shift permutation, offered "
            << load << shard_note << ":\n  accepted throughput: "
            << nbclos::format_double(result.accepted_throughput)
            << " flits/cycle/terminal\n  mean latency:        "
            << nbclos::format_double(result.mean_latency, 1) << " cycles\n"
            << cross_shard << "  saturated:           "
            << (result.saturated() ? "yes" : "no") << "\n";
  return 0;
}

/// Cycle-level flow-control run: finite buffers, credits/on-off, wormhole
/// or virtual cut-through — the effects `simulate` (ideal switches)
/// abstracts away.  Only deterministic single-path routings make sense
/// here, because the flit engine asks a pure NextHop.  The run is one
/// flow::ShardedFlowSim on `--shards N` shards (one when not given;
/// results are shard-count independent); `kary:K,H` fabrics route
/// destination-based up/down (the d-mod-k analogue).
int cmd_flow_sim(const Args& args) {
  const Topo& topo = args["<topo>"].topo;
  const bool sharded = args["--shards"].set;
  const auto shards = args["--shards"].u32();
  g_manifest_shards = shards;
  auto config = nbclos::cli::flow_config(args);
  config.record_timeseries = !args["--timeseries-out"].text.empty();
  const Fabric fabric = build_fabric(topo);

  // O(1) arithmetic with no per-pair table, so the run scales to 10^6
  // terminals where an O(T^2) route cache cannot exist.
  const auto routes = make_next_hop(topo, fabric, args["[routing]"].text);
  const std::string routing_label = routes->name();
  nbclos::flow::ShardedFlowSim sim(routes, fabric.traffic, config,
                                   sharded ? shards : 1);
  const auto result = sim.run();
  stash_recorder(sim.recorder());
  const auto& forensics = sim.forensics();
  const auto arena = sim.arena_stats();

  const bool vct = args["--switching"].text == "vct";
  const bool onoff = args["--onoff"].set;

  if (args["--json"].set) {
    nbclos::JsonWriter jw(std::cout);
    jw.begin_object().member("topology", topo.name);
    jw.member("routing", routing_label).member("traffic", "shift_permutation");
    jw.key("config").begin_object().member("shards", shards);
    jw.member("injection_rate", config.injection_rate);
    jw.member("packet_flits", config.packet_flits);
    jw.member("buffer_flits", config.buffer_flits).member("vcs", config.vcs);
    jw.member("switching", vct ? "vct" : "wormhole");
    jw.member("backpressure", onoff ? "onoff" : "credit");
    jw.member("credit_delay", config.credit_delay);
    jw.member("warmup_cycles", config.warmup_cycles);
    jw.member("measure_cycles", config.measure_cycles);
    jw.member("seed", config.seed).end_object();
    jw.key("result").begin_object();
    jw.member("offered_load", result.offered_load);
    jw.member("accepted_throughput", result.accepted_throughput);
    jw.member("mean_latency", result.mean_latency);
    jw.member("p50_latency", result.p50_latency);
    jw.member("p99_latency", result.p99_latency);
    jw.member("p999_latency", result.p999_latency);
    jw.member("injected_packets", result.injected_packets);
    jw.member("delivered_packets", result.delivered_packets);
    jw.member("mean_switch_queue_depth", result.mean_switch_queue_depth);
    jw.member("credit_stall_cycles", result.credit_stall_cycles);
    jw.member("vc_stall_cycles", result.vc_stall_cycles);
    jw.member("mean_stall_cycles", result.mean_stall_cycles);
    jw.member("p99_stall_cycles", result.p99_stall_cycles);
    jw.member("peak_buffer_flits", result.peak_buffer_flits);
    jw.member("peak_live_packets", result.peak_live_packets);
    jw.member("saturated", result.saturated());
    jw.member("deadlocked", result.deadlocked);
    if (result.deadlocked) {
      jw.member("deadlock_cycle", result.deadlock_cycle);
      jw.member("stuck_flits", result.stuck_flits);
    }
    jw.end_object();
    if (forensics.valid) {
      jw.key("forensics").begin_object();
      jw.member("trip_cycle", forensics.trip_cycle);
      jw.member("stuck_flits", forensics.stuck_flits);
      jw.key("blocked").begin_array();
      for (const auto& report : forensics.blocked) {
        jw.begin_object().member("buffer", report.buffer);
        jw.member("channel", report.channel);
        jw.member("occupancy", report.occupancy);
        if (report.waiting_for !=
            nbclos::flow::BlockedBufferReport::kWaitsOnNone) {
          jw.member("waiting_for", report.waiting_for);
        }
        jw.member("blocked_since", report.blocked_since);
        jw.member("on_cycle", report.on_cycle).end_object();
      }
      jw.end_array().key("wait_cycle").begin_array();
      for (const auto buffer : forensics.wait_cycle) jw.value(buffer);
      jw.end_array().end_object();
    }
    jw.key("arena").begin_object().member("route_source", routes->name());
    jw.member("route_bytes", static_cast<std::uint64_t>(routes->bytes()));
    jw.member("flit_arena_bytes",
              static_cast<std::uint64_t>(arena.flit_arena_bytes));
    jw.member("packet_arena_bytes",
              static_cast<std::uint64_t>(arena.packet_arena_bytes));
    jw.member("resident_slab_slots", arena.resident_slots);
    jw.member("peak_slab_slots", arena.peak_slots).end_object();
    jw.key("manifest");
    auto manifest = nbclos::obs::RunInfo::current();
    manifest.shards = shards;
    manifest.write_json(jw);
    jw.end_object();
    std::cout << "\n";
    return result.deadlocked ? 1 : 0;
  }

  std::cout << topo.name << ", " << routing_label
            << ", shift permutation, offered " << config.injection_rate;
  if (sharded) {
    std::cout << ", " << shards
              << " shard(s) [results are shard-count independent]";
  }
  std::cout << ":\n"
            << "  flow control:        " << (vct ? "vct" : "wormhole") << " + "
            << (onoff ? "on/off" : "credit") << ", " << config.buffer_flits
            << " flits/buffer, " << config.vcs << " VC(s), "
            << config.packet_flits << "-flit packets\n"
            << "  accepted throughput: "
            << nbclos::format_double(result.accepted_throughput)
            << " flits/cycle/terminal\n  mean latency:        "
            << nbclos::format_double(result.mean_latency, 1)
            << " cycles (p99 "
            << nbclos::format_double(result.p99_latency, 1) << ")\n"
            << "  backpressure stalls: " << result.credit_stall_cycles
            << " credit + " << result.vc_stall_cycles << " vc cycles\n"
            << "  peak buffer flits:   " << result.peak_buffer_flits << " of "
            << config.buffer_flits << "\n"
            << "  saturated:           "
            << (result.saturated() ? "yes" : "no") << "\n";
  if (result.deadlocked) {
    std::cout << "  DEADLOCK at cycle " << result.deadlock_cycle << " ("
              << result.stuck_flits << " flits wedged)\n";
    if (forensics.valid) {
      std::cout << "  blocked FIFOs (" << forensics.blocked.size() << "):\n";
      for (const auto& report : forensics.blocked) {
        std::cout << "    buffer " << report.buffer << " (channel "
                  << report.channel << ", " << report.occupancy
                  << " flits, blocked since cycle " << report.blocked_since
                  << ")";
        if (report.waiting_for !=
            nbclos::flow::BlockedBufferReport::kWaitsOnNone) {
          std::cout << " -> waits on buffer " << report.waiting_for;
        }
        if (report.on_cycle) std::cout << "  [circular wait]";
        std::cout << "\n";
      }
      if (!forensics.wait_cycle.empty()) {
        std::cout << "  circular wait chain:";
        for (const auto buffer : forensics.wait_cycle) {
          std::cout << " " << buffer;
        }
        std::cout << " -> " << forensics.wait_cycle.front() << "\n";
      }
    }
  }
  return result.deadlocked ? 1 : 0;
}

int cmd_load_sweep(const Args& args) {
  const Topo& topo = args["<topo>"].topo;
  const std::string& routing = args["<routing>"].text;
  const bool sharded = args["--shards"].set;
  const std::uint32_t shards = sharded ? args["--shards"].u32() : 1;
  g_manifest_shards = args["--shards"].u32();
  const Fabric fabric = build_fabric(topo);
  nbclos::sim::SimConfig config;
  config.counter_injection = true;  // as in cmd_simulate

  std::vector<nbclos::sim::SimResult> results;
  std::string engine_note;
  if (sharded || topo.kary) {
    const auto router = make_next_hop(topo, fabric, routing);
    results = nbclos::sim::load_sweep_sharded(
        *router, fabric.traffic, config, args["[rates_csv]"].list, shards);
    engine_note = std::to_string(shards) +
                  " shard(s); results are shard-count independent";
  } else {
    const auto factory = make_oracle_factory(*fabric.ft, routing);
    nbclos::ThreadPool pool(args["[threads]"].number);
    results = nbclos::sim::load_sweep(fabric.net, factory, fabric.traffic,
                                      config, args["[rates_csv]"].list, &pool);
    engine_note = std::to_string(pool.thread_count()) +
                  " threads; results are thread-count independent";
  }

  std::cout << "Load sweep on " << topo.name << ", " << routing
            << ", shift permutation (" << engine_note << "):\n";
  nbclos::TextTable out({"offered", "accepted", "mean lat", "p50", "p99",
                         "p99.9", "queue depth", "saturated"});
  for (const auto& result : results) {
    out.add_row({nbclos::format_double(result.offered_load),
                 nbclos::format_double(result.accepted_throughput),
                 nbclos::format_double(result.mean_latency, 1),
                 nbclos::format_double(result.p50_latency, 1),
                 nbclos::format_double(result.p99_latency, 1),
                 nbclos::format_double(result.p999_latency, 1),
                 nbclos::format_double(result.mean_switch_queue_depth),
                 result.saturated() ? "yes" : "no"});
  }
  out.print(std::cout);
  return 0;
}

int cmd_saturation(const Args& args) {
  const auto n = args["<n>"].u32();
  const auto r = args["<r>"].u32();
  const std::string& routing = args["<routing>"].text;
  const auto iterations = args["[iterations]"].u32();
  const Fabric fabric = build_fabric(Topo{false, n, r, 0, 0, {}});
  const auto factory = make_oracle_factory(*fabric.ft, routing);
  nbclos::sim::SimConfig config;
  config.counter_injection = true;  // as in cmd_simulate

  nbclos::ThreadPool pool(args["[threads]"].number);
  const double sat = nbclos::sim::find_saturation_load(
      fabric.net, factory, fabric.traffic, config, iterations, &pool);
  std::cout << "ftree(" << n << "+" << n * n << ", " << r << "), " << routing
            << ", shift permutation:\n  saturation load: "
            << nbclos::format_double(sat)
            << " flits/cycle/terminal (bracketing grid + " << iterations
            << " bisection steps, " << pool.thread_count() << " threads)\n";
  return 0;
}

int cmd_circuit(const Args& args) {
  const auto n = args["<n>"].u32();
  const auto m = args["<m>"].u32();
  const auto r = args["<r>"].u32();
  const auto steps = args["[steps]"].number;
  nbclos::circuit::ClosCircuitSwitch clos(n, m, r);
  nbclos::Xoshiro256 rng(5);
  const auto result = nbclos::circuit::run_churn(
      clos, nbclos::circuit::FitStrategy::kPacking, steps, 1.0, false, rng);
  clos.validate();
  std::cout << "Clos(" << n << ", " << m << ", " << r
            << ") circuit churn, packing strategy, " << steps << " steps:\n"
            << "  attempts: " << result.attempts << "\n  blocked:  "
            << result.blocked << " (P = "
            << nbclos::format_double(result.blocking_probability(), 4)
            << ")\n  strictly nonblocking bound 2n-1 = " << 2 * n - 1 << "\n";
  return 0;
}

int cmd_fault_sweep(const Args& args) {
  nbclos::analysis::FaultSweepConfig config;
  config.n = args["<n>"].u32();
  config.r = args["<r>"].u32();
  config.max_failures = args["<max_failures>"].u32();
  const auto& perms = args["[perms]"];
  if (perms.set) config.permutations_per_level = perms.u32();
  if (args["[seed]"].set) config.seed = args["[seed]"].number;

  nbclos::ThreadPool pool;
  const auto result = nbclos::analysis::run_fault_sweep(config, pool);

  std::cout << "Fault sweep on ftree(" << config.n << "+"
            << config.n * config.n << ", " << config.r << "), seed "
            << config.seed << ", " << config.permutations_per_level
            << " random permutations per level (degraded Theorem 3 "
               "routing):\n";
  nbclos::TextTable table(
      {"failed links", "blocked", "unroutable", "worst collisions",
       "fallback pairs"});
  for (const auto& level : result.levels) {
    table.add_row({std::to_string(level.failures),
                   std::to_string(level.blocked_permutations),
                   std::to_string(level.unroutable_permutations),
                   std::to_string(level.worst_collisions),
                   std::to_string(level.fallback_pairs)});
  }
  table.print(std::cout);
  if (result.first_blocking_failures.has_value()) {
    std::cout << "nonblocking margin: first permutation blocks at "
              << *result.first_blocking_failures << " failed uplink pairs\n";
  } else {
    std::cout << "nonblocking margin: no permutation blocked within "
              << config.max_failures << " failed uplink pairs\n";
  }
  return 0;
}

/// Empirical nonblocking verification from the command line.  Always
/// drives the parallel engines (a 1-thread pool when --threads is not
/// given), whose results are thread-count independent, so --threads only
/// changes wall-clock time, never the verdict.
int cmd_verify(const Args& args) {
  const auto n = args["<n>"].u32();
  const auto r = args["<r>"].u32();
  const auto m = args["--m"].set ? args["--m"].u32() : n * n;
  const std::string& mode = args["<mode>"].text;
  const auto seed = args["--seed"].number;
  nbclos::AdversarialOptions options;
  if (args["--restarts"].set) options.restarts = args["--restarts"].u32();
  if (args["--steps"].set) options.steps_per_restart = args["--steps"].u32();

  const nbclos::FoldedClos ftree(nbclos::FtreeParams{n, m, r});
  const auto routing = single_path(ftree, args["[routing]"].text);

  nbclos::ThreadPool pool(args["--threads"].number);
  const auto factory = [&routing](std::uint64_t) {
    return nbclos::as_pattern_router(*routing);
  };
  nbclos::VerifyResult result;
  std::uint64_t space = 0;  // 0 = unbounded / not applicable
  if (mode == "exhaustive") {
    space = nbclos::factorial(ftree.leaf_count());
    result = nbclos::verify_exhaustive_parallel(ftree, factory, pool);
  } else if (mode == "random") {
    result = nbclos::verify_random_parallel(
        ftree, factory, args["--trials"].number, seed, pool);
  } else {
    result = nbclos::verify_adversarial_parallel(ftree, *routing, options,
                                                 seed, pool);
  }

  const std::string topology = "ftree(" + std::to_string(n) + "+" +
                               std::to_string(m) + ", " + std::to_string(r) +
                               ")";
  if (args["--json"].set) {
    nbclos::JsonWriter json(std::cout);
    json.begin_object().member("mode", mode).member("topology", topology);
    json.member("routing", routing->name());
    json.member("threads", static_cast<std::uint64_t>(pool.thread_count()));
    json.member("nonblocking", result.nonblocking);
    json.member("permutations_checked", result.permutations_checked);
    if (space > 0) json.member("permutation_space", space);
    if (result.counterexample.has_value()) {
      json.member("counterexample_collisions",
                  result.counterexample_collisions);
      json.key("counterexample").begin_array();
      for (const auto sd : *result.counterexample) {
        json.begin_array().value(sd.src.value).value(sd.dst.value).end_array();
      }
      json.end_array();
    }
    json.end_object();
    std::cout << "\n";
    return result.nonblocking ? 0 : 1;
  }

  std::cout << topology << ", " << routing->name() << ", " << mode
            << " verification (" << pool.thread_count()
            << " threads):\n  permutations checked: "
            << result.permutations_checked;
  if (space > 0) std::cout << " of " << space;
  std::cout << "\n  verdict: ";
  if (result.nonblocking) {
    std::cout << (mode == "exhaustive"
                      ? "NONBLOCKING (proof for this instance)"
                      : "no counterexample found within budget");
  } else {
    std::cout << "BLOCKING (" << result.counterexample_collisions
              << " colliding path pairs)";
  }
  std::cout << "\n";
  if (result.counterexample.has_value()) {
    std::cout << "  counterexample:";
    for (const auto sd : *result.counterexample) {
      std::cout << " " << sd.src.value << "->" << sd.dst.value;
    }
    std::cout << "\n";
  }
  return result.nonblocking ? 0 : 1;
}

int cmd_dot(const Args& args) {
  nbclos::DotOptions options;
  options.graph_name = "ftree";
  nbclos::write_dot(std::cout, fabric_of(args).to_network(), options);
  return 0;
}

int run_command(const Args& args) {
  using nbclos::cli::CommandId;
  switch (args.command().id) {
    case CommandId::kDesign: return cmd_design(args);
    case CommandId::kCertify: return cmd_certify(args);
    case CommandId::kSchedule: return cmd_schedule(args);
    case CommandId::kSimulate: return cmd_simulate(args);
    case CommandId::kFlowSim: return cmd_flow_sim(args);
    case CommandId::kLoadSweep: return cmd_load_sweep(args);
    case CommandId::kSaturation: return cmd_saturation(args);
    case CommandId::kCircuit: return cmd_circuit(args);
    case CommandId::kFaultSweep: return cmd_fault_sweep(args);
    case CommandId::kVerify: return cmd_verify(args);
    case CommandId::kDot: return cmd_dot(args);
    case CommandId::kVersion:
      std::cout << nbclos::obs::RunInfo::current().summary() << "\n";
      return 0;
  }
  return 2;
}

/// Write `body` to `path` ("-" = stdout, "" = not asked for); false,
/// with an error on stderr, when the file cannot be opened.
bool write_output(const std::string& path, const char* what,
                  const std::function<void(std::ostream&)>& body) {
  if (path.empty()) return true;
  std::ofstream file;
  if (path != "-") file.open(path);
  if (path != "-" && !file) {
    std::cerr << "error: cannot write " << what << " to '" << path << "'\n";
    return false;
  }
  body(path == "-" ? std::cout : file);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> words(argv + 1, argv + argc);
  Args args;
  try {
    args = nbclos::cli::parse(words);
  } catch (const nbclos::cli::UsageError& e) {
    if (!words.empty()) std::cerr << e.what() << "\n";
    std::cerr << nbclos::cli::usage();
    return 2;
  }
  const std::string& trace_out = args["--trace-out"].text;
  const std::string& timeseries_out = args["--timeseries-out"].text;

  if (!trace_out.empty()) {
    if (!nbclos::obs::kEnabled) {
      std::cerr << "nbclos: built with NBCLOS_OBS=OFF; trace output will be "
                   "empty\n";
    }
    nbclos::obs::TraceSession::start();
  }
  int rc;
  try {
    rc = run_command(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  }
  if (!trace_out.empty()) nbclos::obs::TraceSession::stop();

  namespace obs = nbclos::obs;
  const auto trace = trace_out.ends_with(".jsonl")
                         ? obs::TraceSession::write_jsonl
                         : obs::TraceSession::write_chrome;
  const auto prom = [](std::ostream& out) { out << obs::prom_export_global(); };
  const auto series = [&](std::ostream& out) {
    (timeseries_out.ends_with(".csv") ? obs::write_timeseries_csv
                                      : obs::write_timeseries_json)(
        out, g_series, g_series_config);
  };
  const bool written =
      write_output(trace_out, "trace", trace) &&
      write_output(args["--metrics"].text, "metrics", write_metrics_json) &&
      write_output(args["--prom-out"].text, "metrics", prom) &&
      write_output(timeseries_out, "timeseries", series);
  return written || rc != 0 ? rc : 1;
}
