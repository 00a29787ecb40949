/// \file nbclos_cli.cpp
/// \brief Command-line front end for the library: design, certify,
///        schedule, simulate, and circuit-switch — the operations a
///        cluster architect actually runs.
///
/// Usage:
///   nbclos design <radix> [target_ports]
///   nbclos certify <n> [r]
///   nbclos schedule <n> <r>
///   nbclos simulate <topo> <load> <routing: thm3|dmodk|random|adaptive>
///                   [--shards N]
///   nbclos flow-sim <n> <r> <load> [thm3|dmodk] [--packet F] [--buffers F]
///                   [--vcs V] [--switching wormhole|vct] [--credit|--onoff]
///                   [--credit-delay D] [--seed S] [--json]
///   nbclos load-sweep <topo> <routing> [rates_csv] [threads] [--shards N]
///
/// `<topo>` is either `<n> <r>` (two tokens, the ftree(n + n^2, r)
/// fabric) or `kary:K,H` (one token, the K-ary H-tree from
/// build_kary_ntree).  `--shards N` routes the run through the
/// switch-partitioned `ShardedSim` engine — results are bit-identical at
/// any shard count, and only pure routings (thm3, dmodk) qualify;
/// `random` and `adaptive` consult global queue state and are rejected.
///   nbclos saturation <n> <r> <routing> [iterations] [threads]
///   nbclos circuit <n> <m> <r> [steps]
///   nbclos fault-sweep <n> <r> <max_failures> [perms] [seed]
///   nbclos verify <n> <r> <exhaustive|random|adversarial> [thm3|dmodk]
///                 [--m M] [--threads T] [--trials N] [--restarts R]
///                 [--steps S] [--seed S] [--json]
///   nbclos --version
///
/// Global options (any subcommand):
///   --metrics FILE    dump the merged metrics snapshot as JSON after the
///                     command finishes ("-" = stdout)
///   --trace-out FILE  collect a span/event trace during the command and
///                     write it on exit — Chrome trace_event JSON, or
///                     JSONL when FILE ends in ".jsonl"
///   --prom-out FILE   write the metrics snapshot in Prometheus text
///                     exposition format on exit ("-" = stdout)
///   --timeseries-out FILE
///                     arm the flight recorder for the command's engine
///                     run and write the merged time series on exit —
///                     CSV when FILE ends in ".csv", else JSON
///                     ("-" = JSON to stdout)
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

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
#include "nbclos/flow/engine.hpp"
#include "nbclos/flow/sharded.hpp"
#include "nbclos/routing/kary_updown.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/sharded.hpp"
#include "nbclos/topology/dot.hpp"
#include "nbclos/util/table.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace {

/// A command line the tool cannot run: main() prints the reason and the
/// usage, and exits 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

int usage() {
  std::cerr << "usage:\n"
            << "  nbclos design <radix> [target_ports]\n"
            << "  nbclos certify <n> [r]\n"
            << "  nbclos schedule <n> <r>\n"
            << "  nbclos sim|simulate <topo> <load> "
               "<thm3|dmodk|random|adaptive> [--shards N]\n"
            << "  nbclos flow-sim <topo> <load> [thm3|dmodk] [--shards N]\n"
               "                  [--packet F] [--buffers F] [--vcs V] "
               "[--switching wormhole|vct]\n"
               "                  [--credit|--onoff] [--credit-delay D] "
               "[--seed S] [--json]\n"
            << "  nbclos load-sweep <topo> <routing> [rates_csv] [threads] "
               "[--shards N]\n"
            << "  (<topo> = <n> <r> for ftree(n+n^2, r), or kary:K,H)\n"
            << "  nbclos saturation <n> <r> <routing> [iterations] [threads]\n"
            << "  nbclos circuit <n> <m> <r> [steps]\n"
            << "  nbclos dot <n> [r]           (Graphviz to stdout)\n"
            << "  nbclos fault-sweep <n> <r> <max_failures> [perms] [seed]\n"
            << "  nbclos verify <n> <r> <exhaustive|random|adversarial> "
               "[thm3|dmodk]\n"
            << "                [--m M] [--threads T] [--trials N] "
               "[--restarts R] [--steps S]\n"
            << "                [--seed S] [--json]\n"
            << "  nbclos metrics-serve [--port P] [--max-requests N]\n"
            << "  nbclos --version\n"
            << "global options: --metrics FILE|-   --trace-out FILE[.jsonl]\n"
            << "                --prom-out FILE|-  --timeseries-out "
               "FILE[.csv]|-\n";
  return 2;
}

/// Shard count of the command that ran (0 = not a sharded run) —
/// recorded in the manifest of the --metrics dump.
std::uint32_t g_manifest_shards = 0;

/// --timeseries-out destination; non-empty arms the flight recorder in
/// the single-run engine commands (simulate, flow-sim).
std::string g_timeseries_out;

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
  const auto samples = nbclos::obs::metrics().snapshot();
  nbclos::JsonWriter json(out);
  json.begin_object();
  json.key("metrics").begin_array();
  for (const auto& sample : samples) {
    json.begin_object();
    json.member("name", sample.name);
    switch (sample.kind) {
      case nbclos::obs::MetricSample::Kind::kCounter:
        json.member("kind", "counter");
        json.member("count", sample.count);
        break;
      case nbclos::obs::MetricSample::Kind::kGauge:
        json.member("kind", "gauge");
        json.member("value", sample.gauge);
        break;
      case nbclos::obs::MetricSample::Kind::kHistogram:
        json.member("kind", "histogram");
        json.member("count", sample.count);
        json.member("p50", sample.p50);
        json.member("p99", sample.p99);
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

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The whole of `text` as an unsigned decimal; anything else (empty, a
/// sign, trailing characters, overflow) is a usage error naming `what`.
std::uint64_t usage_u64(const std::string& text, const std::string& what) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end) {
    throw UsageError(what + " must be an unsigned integer, not '" + text +
                     "'");
  }
  return value;
}

std::uint32_t usage_u32(const std::string& text, const std::string& what) {
  const auto value = usage_u64(text, what);
  if (value > UINT32_MAX) throw UsageError(what + " is out of range");
  return static_cast<std::uint32_t>(value);
}

/// The whole of `text` as a finite decimal number; anything else is a
/// usage error naming `what`.
double usage_double(const std::string& text, const std::string& what) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end ||
      !std::isfinite(value)) {
    throw UsageError(what + " must be a number, not '" + text + "'");
  }
  return value;
}

/// Positional argument `i` as a u32 (see usage_u32).
std::uint32_t arg_u32(const std::vector<std::string>& args, std::size_t i,
                      const std::string& what) {
  return usage_u32(args.at(i), what);
}

/// Reject an ftree(n+m, r) shape FoldedClos cannot hold — fewer than one
/// leaf or top per switch, fewer than two bottom switches, or more links
/// than its 32-bit ids cover — before anything is built.  Every command
/// that builds an ftree runs this check.
void check_ftree_shape(std::uint64_t n, std::uint64_t m, std::uint64_t r) {
  if (n < 1 || m < 1 || r < 2) {
    throw UsageError("ftree(n+m, r) needs n >= 1, m >= 1 and r >= 2");
  }
  // Operands stay below 2^32 before each product, so nothing wraps.
  const bool fits = n <= UINT32_MAX && m <= UINT32_MAX && r <= UINT32_MAX &&
                    n * r <= UINT32_MAX && m * r <= UINT32_MAX &&
                    2 * (n * r + m * r) <= UINT32_MAX;
  if (!fits) {
    throw UsageError("ftree(n+m, r) with n = " + std::to_string(n) +
                     ", m = " + std::to_string(m) + ", r = " +
                     std::to_string(r) + " needs more than 2^32 - 1 link ids");
  }
}

/// `<n> [r]` of the commands that build ftree(n+n^2, r) as a
/// NonblockingFabric, whose r defaults to the switch radix n + n^2.
std::pair<std::uint32_t, std::optional<std::uint32_t>> fabric_args(
    const std::vector<std::string>& args) {
  const auto n = arg_u32(args, 0, "<n>");
  if (n < 2) throw UsageError("<n> must be at least 2");
  std::optional<std::uint32_t> r;
  if (args.size() >= 2) r = arg_u32(args, 1, "[r]");
  const std::uint64_t m = std::uint64_t{n} * n;
  check_ftree_shape(n, m, r ? *r : n + m);
  return {n, r};
}

/// Remove `name <value>` from `args` wherever it appears; returns the
/// parsed value, or nullopt when the flag is absent.
std::optional<std::uint32_t> take_u32_flag(std::vector<std::string>& args,
                                           const std::string& name) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != name) continue;
    if (i + 1 >= args.size()) throw UsageError(name + " needs a value");
    const auto value = usage_u32(args[i + 1], name);
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    return value;
  }
  return std::nullopt;
}

/// A simulated fabric: ftree(n + n^2, r) from two positional tokens, or
/// a K-ary H-tree from one "kary:K,H" token.  Advances `i` past what it
/// consumed.
struct TopoSpec {
  bool kary = false;
  std::uint32_t n = 0, r = 0;  // ftree, when !kary
  std::uint32_t k = 0, h = 0;  // k-ary h-tree, when kary
  std::string name;
};

TopoSpec parse_topo(const std::vector<std::string>& args, std::size_t& i) {
  TopoSpec topo;
  const std::string& first = args.at(i);
  if (first.rfind("kary:", 0) == 0) {
    const auto comma = first.find(',');
    if (comma == std::string::npos) throw UsageError("k-ary spec is kary:K,H");
    topo.kary = true;
    topo.k = usage_u32(first.substr(5, comma - 5), "K of kary:K,H");
    topo.h = usage_u32(first.substr(comma + 1), "H of kary:K,H");
    topo.name = "kary(" + std::to_string(topo.k) + "," +
                std::to_string(topo.h) + ")";
    i += 1;
  } else {
    topo.n = arg_u32(args, i, "<n>");
    topo.r = arg_u32(args, i + 1, "<r>");
    check_ftree_shape(topo.n, std::uint64_t{topo.n} * topo.n, topo.r);
    topo.name = "ftree(" + std::to_string(topo.n) + "+" +
                std::to_string(topo.n * topo.n) + ", " +
                std::to_string(topo.r) + ")";
    i += 2;
  }
  return topo;
}

/// The pure next hop a ShardedSim run (and any k-ary run) routes
/// through: O(1) arithmetic for d-mod-k, the materialized route cache
/// for Theorem 3.
std::shared_ptr<const nbclos::routing::NextHop> make_next_hop(
    const TopoSpec& topo, const nbclos::FoldedClos* ft,
    const nbclos::Network& net, const std::string& routing) {
  if (topo.kary) {
    if (routing != "dmodk") {
      throw UsageError("k-ary fabrics support only the dmodk routing");
    }
    return std::make_shared<const nbclos::sim::KaryDmodkRouter>(net, topo.k,
                                                                topo.h);
  }
  if (routing == "dmodk") {
    return std::make_shared<const nbclos::sim::FtreeDmodkRouter>(*ft, net);
  }
  if (routing == "thm3") {
    return nbclos::routing::ChannelRouteCache::materialize(
        net, nbclos::YuanNonblockingRouting(*ft));
  }
  if (routing == "random" || routing == "adaptive") {
    throw UsageError("routing '" + routing +
                     "' consults global queue state and cannot run sharded");
  }
  throw UsageError("unknown routing '" + routing + "'");
}

int cmd_design(const std::vector<std::string>& args) {
  const auto radix = arg_u32(args, 0, "<radix>");
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
  if (args.size() >= 2) {
    const auto target = usage_u64(args[1], "[target_ports]");
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

int cmd_certify(const std::vector<std::string>& args) {
  const auto [n, r] = fabric_args(args);
  const nbclos::NonblockingFabric fabric(n, r);
  std::cout << "ftree(" << n << "+" << n * n << ", " << fabric.topology().r()
            << "): " << fabric.port_count() << " ports\n"
            << "Lemma 1 audit over "
            << fabric.topology().cross_pair_count() << " SD pairs: ";
  const bool ok = fabric.certify();
  std::cout << (ok ? "NONBLOCKING (proof for this instance)" : "FAILED")
            << "\n";
  return ok ? 0 : 1;
}

int cmd_schedule(const std::vector<std::string>& args) {
  const auto n = arg_u32(args, 0, "<n>");
  const auto r = arg_u32(args, 1, "<r>");
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

int cmd_simulate(std::vector<std::string> args) {
  const auto shards = take_u32_flag(args, "--shards");
  std::size_t i = 0;
  const auto topo = parse_topo(args, i);
  const double load = usage_double(args.at(i++), "<load>");
  const std::string routing = args.at(i++);
  g_manifest_shards = shards.value_or(0);

  std::unique_ptr<nbclos::FoldedClos> ft;
  nbclos::Network net = [&] {
    if (topo.kary) return nbclos::build_kary_ntree(topo.k, topo.h);
    ft = std::make_unique<nbclos::FoldedClos>(
        nbclos::FtreeParams{topo.n, topo.n * topo.n, topo.r});
    return nbclos::build_network(*ft);
  }();
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  const auto shift = topo.kary ? topo.k + 1 : topo.n + 1;
  const auto traffic = nbclos::sim::TrafficPattern::permutation(
      nbclos::shift_permutation(terminals, shift), terminals);

  nbclos::sim::SimConfig config;
  config.injection_rate = load;
  config.warmup_cycles = 2000;
  config.measure_cycles = 8000;
  // The sharded engine's only mode; using it on the serial path too keeps
  // the output independent of --shards.
  config.counter_injection = true;
  config.record_timeseries = !g_timeseries_out.empty();

  // Sharded engine (or any k-ary run — its routing is already a pure
  // NextHop, so one shard is the natural engine for it too).
  if (shards.has_value() || topo.kary) {
    const auto router = make_next_hop(topo, ft.get(), net, routing);
    nbclos::sim::ShardedSim sim(*router, traffic, config, shards.value_or(1));
    const auto result = sim.run();
    stash_recorder(sim.recorder());
    std::cout << topo.name << ", " << routing
              << ", shift permutation, offered " << load << ", "
              << sim.shard_count()
              << " shard(s) [results are shard-count independent]:\n"
              << "  accepted throughput: "
              << nbclos::format_double(result.accepted_throughput)
              << " flits/cycle/terminal\n  mean latency:        "
              << nbclos::format_double(result.mean_latency, 1) << " cycles\n"
              << "  cross-shard flits:   "
              << sim.telemetry().cross_shard_flits << "\n"
              << "  saturated:           "
              << (result.saturated() ? "yes" : "no") << "\n";
    return 0;
  }

  std::unique_ptr<nbclos::sim::RoutingOracle> oracle;
  std::unique_ptr<nbclos::RoutingTable> table;
  std::unique_ptr<nbclos::YuanNonblockingRouting> yuan;
  if (routing == "thm3") {
    yuan = std::make_unique<nbclos::YuanNonblockingRouting>(*ft);
    table = std::make_unique<nbclos::RoutingTable>(
        nbclos::RoutingTable::materialize(*yuan));
    oracle = std::make_unique<nbclos::sim::FtreeOracle>(
        *ft, nbclos::sim::UplinkPolicy::kTable, table.get());
  } else if (routing == "dmodk") {
    oracle = std::make_unique<nbclos::sim::FtreeOracle>(
        *ft, nbclos::sim::UplinkPolicy::kDModK);
  } else if (routing == "random") {
    oracle = std::make_unique<nbclos::sim::FtreeOracle>(
        *ft, nbclos::sim::UplinkPolicy::kRandom);
  } else if (routing == "adaptive") {
    oracle = std::make_unique<nbclos::sim::FtreeOracle>(
        *ft, nbclos::sim::UplinkPolicy::kLeastQueue);
  } else {
    throw UsageError("unknown routing '" + routing + "'");
  }

  nbclos::sim::PacketSim sim(net, *oracle, traffic, config);
  const auto result = sim.run();
  stash_recorder(sim.recorder());
  std::cout << topo.name << ", " << routing
            << ", shift permutation, offered " << load
            << ":\n  accepted throughput: "
            << nbclos::format_double(result.accepted_throughput)
            << " flits/cycle/terminal\n  mean latency:        "
            << nbclos::format_double(result.mean_latency, 1) << " cycles\n"
            << "  saturated:           "
            << (result.saturated() ? "yes" : "no") << "\n";
  return 0;
}

/// Cycle-level flow-control run: finite buffers, credits/on-off, wormhole
/// or virtual cut-through — the effects `simulate` (ideal switches)
/// abstracts away.  Only deterministic single-path routings make sense
/// here, because the flit engine consumes a materialized channel cache.
/// `--shards N` routes the run through flow::ShardedFlowSim (counter
/// injection; results are shard-count independent); `kary:K,H` fabrics
/// route destination-based up/down (the d-mod-k analogue).
int cmd_flow_sim(std::vector<std::string> args) {
  const auto shards = take_u32_flag(args, "--shards");
  g_manifest_shards = shards.value_or(0);
  std::size_t i = 0;
  const auto topo = parse_topo(args, i);
  const double load = usage_double(args.at(i++), "<load>");
  std::string routing_name = topo.kary ? "dmodk" : "thm3";
  if (i < args.size() && args[i].rfind("--", 0) != 0) routing_name = args[i++];

  nbclos::flow::FlowConfig config;
  config.injection_rate = load;
  bool json = false;
  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw UsageError(flag + " needs a value");
      return args[++i];
    };
    if (flag == "--packet") {
      config.packet_flits = usage_u32(next(), flag);
    } else if (flag == "--buffers") {
      config.buffer_flits = usage_u32(next(), flag);
    } else if (flag == "--vcs") {
      config.vcs = usage_u32(next(), flag);
    } else if (flag == "--switching") {
      const std::string mode = next();
      if (mode == "wormhole") {
        config.switching = nbclos::flow::Switching::kWormhole;
      } else if (mode == "vct") {
        config.switching = nbclos::flow::Switching::kVirtualCutThrough;
      } else {
        throw std::invalid_argument("unknown switching mode: " + mode);
      }
    } else if (flag == "--credit") {
      config.backpressure = nbclos::flow::Backpressure::kCredit;
    } else if (flag == "--onoff") {
      config.backpressure = nbclos::flow::Backpressure::kOnOff;
    } else if (flag == "--credit-delay") {
      config.credit_delay = usage_u32(next(), flag);
    } else if (flag == "--seed") {
      config.seed = usage_u64(next(), flag);
    } else if (flag == "--json") {
      json = true;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (const char* reason = config.invalid_reason()) throw UsageError(reason);
  config.counter_injection = true;  // as in cmd_simulate

  std::unique_ptr<nbclos::FoldedClos> ft;
  const nbclos::Network net = [&] {
    if (topo.kary) return nbclos::build_kary_ntree(topo.k, topo.h);
    ft = std::make_unique<nbclos::FoldedClos>(
        nbclos::FtreeParams{topo.n, topo.n * topo.n, topo.r});
    return nbclos::build_network(*ft);
  }();
  std::shared_ptr<const nbclos::routing::NextHop> routes;
  std::string routing_label;
  if (topo.kary) {
    // Pure O(1) dmodk arithmetic — no per-pair table, so k-ary fabrics
    // scale to 10^6 terminals where the O(T^2) cache cannot exist.
    routes = make_next_hop(topo, nullptr, net, routing_name);
    routing_label = routes->name();
  } else {
    std::unique_ptr<nbclos::SinglePathRouting> routing;
    if (routing_name == "thm3") {
      routing = std::make_unique<nbclos::YuanNonblockingRouting>(*ft);
    } else if (routing_name == "dmodk") {
      routing = std::make_unique<nbclos::DModKRouting>(*ft);
    } else {
      throw UsageError("unknown routing '" + routing_name + "'");
    }
    routes = nbclos::routing::ChannelRouteCache::materialize(net, *routing);
    routing_label = routing->name();
  }
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  const auto shift = topo.kary ? topo.k + 1 : topo.n + 1;
  const auto traffic = nbclos::sim::TrafficPattern::permutation(
      nbclos::shift_permutation(terminals, shift), terminals);

  config.record_timeseries = !g_timeseries_out.empty();
  nbclos::flow::FlowResult result;
  nbclos::flow::DeadlockForensics forensics;
  nbclos::flow::ArenaStats arena{};
  if (shards.has_value()) {
    nbclos::flow::ShardedFlowSim sim(routes, traffic, config, *shards);
    result = sim.run();
    stash_recorder(sim.recorder());
    forensics = sim.forensics();
    arena = sim.arena_stats();
  } else {
    nbclos::flow::FlowSim sim(routes, traffic, config);
    result = sim.run();
    stash_recorder(sim.recorder());
    forensics = sim.forensics();
    arena = sim.arena_stats();
  }

  const bool vct =
      config.switching == nbclos::flow::Switching::kVirtualCutThrough;
  const bool onoff =
      config.backpressure == nbclos::flow::Backpressure::kOnOff;

  if (json) {
    nbclos::JsonWriter jw(std::cout);
    jw.begin_object();
    jw.member("topology", topo.name);
    jw.member("routing", routing_label);
    jw.member("traffic", "shift_permutation");
    jw.key("config").begin_object();
    jw.member("shards", static_cast<std::uint64_t>(shards.value_or(0)));
    jw.member("injection_rate", config.injection_rate);
    jw.member("packet_flits", config.packet_flits);
    jw.member("buffer_flits", config.buffer_flits);
    jw.member("vcs", config.vcs);
    jw.member("switching", vct ? "vct" : "wormhole");
    jw.member("backpressure", onoff ? "onoff" : "credit");
    jw.member("credit_delay", config.credit_delay);
    jw.member("warmup_cycles", config.warmup_cycles);
    jw.member("measure_cycles", config.measure_cycles);
    jw.member("seed", config.seed);
    jw.end_object();
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
        jw.begin_object();
        jw.member("buffer", report.buffer);
        jw.member("channel", report.channel);
        jw.member("occupancy", report.occupancy);
        if (report.waiting_for !=
            nbclos::flow::BlockedBufferReport::kWaitsOnNone) {
          jw.member("waiting_for", report.waiting_for);
        }
        jw.member("blocked_since", report.blocked_since);
        jw.member("on_cycle", report.on_cycle);
        jw.end_object();
      }
      jw.end_array();
      jw.key("wait_cycle").begin_array();
      for (const auto buffer : forensics.wait_cycle) jw.value(buffer);
      jw.end_array();
      jw.end_object();
    }
    jw.key("arena").begin_object();
    jw.member("route_source", routes->name());
    jw.member("route_bytes", static_cast<std::uint64_t>(routes->bytes()));
    jw.member("flit_arena_bytes",
              static_cast<std::uint64_t>(arena.flit_arena_bytes));
    jw.member("packet_arena_bytes",
              static_cast<std::uint64_t>(arena.packet_arena_bytes));
    jw.member("resident_slab_slots", arena.resident_slots);
    jw.member("peak_slab_slots", arena.peak_slots);
    jw.end_object();
    jw.key("manifest");
    auto manifest = nbclos::obs::RunInfo::current();
    manifest.shards = shards.value_or(0);
    manifest.write_json(jw);
    jw.end_object();
    std::cout << "\n";
    return result.deadlocked ? 1 : 0;
  }

  std::cout << topo.name << ", " << routing_label
            << ", shift permutation, offered " << load;
  if (shards.has_value()) {
    std::cout << ", " << *shards
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

/// Routing-policy name -> oracle factory for the parallel sweep drivers.
/// `table` (when non-null) must outlive every run the factory seeds.
nbclos::sim::OracleFactory make_oracle_factory(
    const nbclos::FoldedClos& ft, const nbclos::RoutingTable* table,
    const std::string& routing) {
  using nbclos::sim::UplinkPolicy;
  UplinkPolicy policy;
  if (routing == "thm3") {
    policy = UplinkPolicy::kTable;
  } else if (routing == "dmodk") {
    policy = UplinkPolicy::kDModK;
  } else if (routing == "random") {
    policy = UplinkPolicy::kRandom;
  } else if (routing == "adaptive") {
    policy = UplinkPolicy::kLeastQueue;
  } else {
    throw UsageError("unknown routing '" + routing + "'");
  }
  return [&ft, table, policy](std::uint64_t run_seed,
                              nbclos::fault::DegradedView*) {
    return std::make_unique<nbclos::sim::FtreeOracle>(ft, policy, table,
                                                      run_seed);
  };
}

std::vector<double> parse_rates_csv(const std::string& csv) {
  std::vector<double> rates;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    rates.push_back(usage_double(item, "a rate in [rates_csv]"));
  }
  return rates;
}

int cmd_load_sweep(std::vector<std::string> args) {
  const auto shards = take_u32_flag(args, "--shards");
  std::size_t i = 0;
  const auto topo = parse_topo(args, i);
  const std::string routing = args.at(i++);
  const std::vector<double> rates =
      i < args.size() ? parse_rates_csv(args[i++])
                      : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9, 1.0};
  const std::size_t threads =
      i < args.size() ? usage_u64(args[i++], "[threads]") : 0;
  g_manifest_shards = shards.value_or(0);

  std::unique_ptr<nbclos::FoldedClos> ft;
  nbclos::Network net = [&] {
    if (topo.kary) return nbclos::build_kary_ntree(topo.k, topo.h);
    ft = std::make_unique<nbclos::FoldedClos>(
        nbclos::FtreeParams{topo.n, topo.n * topo.n, topo.r});
    return nbclos::build_network(*ft);
  }();
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  const auto shift = topo.kary ? topo.k + 1 : topo.n + 1;
  const auto traffic = nbclos::sim::TrafficPattern::permutation(
      nbclos::shift_permutation(terminals, shift), terminals);

  nbclos::sim::SimConfig config;
  config.warmup_cycles = 2000;
  config.measure_cycles = 8000;
  config.counter_injection = true;  // as in cmd_simulate

  std::vector<nbclos::sim::SimResult> results;
  std::string engine_note;
  if (shards.has_value() || topo.kary) {
    const auto router = make_next_hop(topo, ft.get(), net, routing);
    results = nbclos::sim::load_sweep_sharded(*router, traffic, config, rates,
                                              shards.value_or(1));
    engine_note = std::to_string(shards.value_or(1)) +
                  " shard(s); results are shard-count independent";
  } else {
    std::unique_ptr<nbclos::RoutingTable> table;
    if (routing == "thm3") {
      const nbclos::YuanNonblockingRouting yuan(*ft);
      table = std::make_unique<nbclos::RoutingTable>(
          nbclos::RoutingTable::materialize(yuan));
    }
    const auto factory = make_oracle_factory(*ft, table.get(), routing);
    nbclos::ThreadPool pool(threads);
    results = nbclos::sim::load_sweep(net, factory, traffic, config, rates,
                                      &pool);
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

int cmd_saturation(const std::vector<std::string>& args) {
  const auto n = arg_u32(args, 0, "<n>");
  const auto r = arg_u32(args, 1, "<r>");
  const std::string routing = args.at(2);
  const std::uint32_t iterations =
      args.size() >= 4 ? arg_u32(args, 3, "[iterations]") : 6;
  const std::size_t threads =
      args.size() >= 5 ? usage_u64(args[4], "[threads]") : 0;
  check_ftree_shape(n, std::uint64_t{n} * n, r);

  const nbclos::FoldedClos ft(nbclos::FtreeParams{n, n * n, r});
  const auto net = nbclos::build_network(ft);
  const auto pattern = nbclos::shift_permutation(ft.leaf_count(), n + 1);
  const auto traffic =
      nbclos::sim::TrafficPattern::permutation(pattern, ft.leaf_count());
  std::unique_ptr<nbclos::RoutingTable> table;
  if (routing == "thm3") {
    const nbclos::YuanNonblockingRouting yuan(ft);
    table = std::make_unique<nbclos::RoutingTable>(
        nbclos::RoutingTable::materialize(yuan));
  }
  const auto factory = make_oracle_factory(ft, table.get(), routing);

  nbclos::sim::SimConfig config;
  config.warmup_cycles = 2000;
  config.measure_cycles = 8000;
  nbclos::ThreadPool pool(threads);
  const double sat = nbclos::sim::find_saturation_load(
      net, factory, traffic, config, iterations, &pool);
  std::cout << "ftree(" << n << "+" << n * n << ", " << r << "), " << routing
            << ", shift permutation:\n  saturation load: "
            << nbclos::format_double(sat)
            << " flits/cycle/terminal (bracketing grid + " << iterations
            << " bisection steps, " << pool.thread_count() << " threads)\n";
  return 0;
}

int cmd_circuit(const std::vector<std::string>& args) {
  const auto n = arg_u32(args, 0, "<n>");
  const auto m = arg_u32(args, 1, "<m>");
  const auto r = arg_u32(args, 2, "<r>");
  const std::uint64_t steps =
      args.size() >= 4 ? usage_u64(args[3], "[steps]") : 20000;
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

int cmd_fault_sweep(const std::vector<std::string>& args) {
  nbclos::analysis::FaultSweepConfig config;
  config.n = arg_u32(args, 0, "<n>");
  config.r = arg_u32(args, 1, "<r>");
  config.max_failures = arg_u32(args, 2, "<max_failures>");
  if (args.size() >= 4) {
    config.permutations_per_level = arg_u32(args, 3, "[perms]");
  }
  if (args.size() >= 5) config.seed = usage_u64(args[4], "[seed]");
  check_ftree_shape(config.n, std::uint64_t{config.n} * config.n, config.r);

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
int cmd_verify(const std::vector<std::string>& args) {
  const auto n = arg_u32(args, 0, "<n>");
  const auto r = arg_u32(args, 1, "<r>");
  const std::string mode = args[2];
  if (mode != "exhaustive" && mode != "random" && mode != "adversarial") {
    throw UsageError("unknown verify mode '" + mode + "'");
  }
  std::string routing_name = "thm3";
  std::size_t i = 3;
  if (i < args.size() && args[i].rfind("--", 0) != 0) routing_name = args[i++];
  if (routing_name != "thm3" && routing_name != "dmodk") {
    throw UsageError("unknown routing '" + routing_name + "'");
  }

  std::uint64_t m = std::uint64_t{n} * n;
  std::size_t threads = 1;
  std::uint64_t trials = 10000;
  nbclos::AdversarialOptions options;
  std::uint64_t seed = 1;
  bool json = false;
  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw UsageError(flag + " needs a value");
      return args[++i];
    };
    if (flag == "--m") {
      m = usage_u32(next(), flag);
    } else if (flag == "--threads") {
      threads = usage_u64(next(), flag);
    } else if (flag == "--trials") {
      trials = usage_u64(next(), flag);
      if (trials == 0) throw UsageError("--trials must be at least 1");
    } else if (flag == "--restarts") {
      options.restarts = usage_u32(next(), flag);
    } else if (flag == "--steps") {
      options.steps_per_restart = usage_u32(next(), flag);
    } else if (flag == "--seed") {
      seed = usage_u64(next(), flag);
    } else if (flag == "--json") {
      json = true;
    } else {
      throw UsageError("unknown flag '" + flag + "'");
    }
  }
  check_ftree_shape(n, m, r);
  if (m >= nbclos::routing::RouteCache::kTopLimit) {
    throw UsageError("m (--m, default n^2) must be below " +
                     std::to_string(nbclos::routing::RouteCache::kTopLimit));
  }
  if (routing_name == "thm3" && m < std::uint64_t{n} * n) {
    throw UsageError("thm3 routing needs m >= n^2 top switches");
  }
  if (mode == "exhaustive" && std::uint64_t{n} * r > 11) {
    throw UsageError("exhaustive verification needs n * r <= 11 leaves");
  }

  const nbclos::FoldedClos ftree(
      nbclos::FtreeParams{n, static_cast<std::uint32_t>(m), r});
  std::unique_ptr<nbclos::SinglePathRouting> routing;
  if (routing_name == "thm3") {
    routing = std::make_unique<nbclos::YuanNonblockingRouting>(ftree);
  } else {
    routing = std::make_unique<nbclos::DModKRouting>(ftree);
  }

  nbclos::ThreadPool pool(threads);
  const auto factory = [&routing](std::uint64_t) {
    return nbclos::as_pattern_router(*routing);
  };
  nbclos::VerifyResult result;
  std::uint64_t space = 0;  // 0 = unbounded / not applicable
  if (mode == "exhaustive") {
    space = nbclos::factorial(ftree.leaf_count());
    result = nbclos::verify_exhaustive_parallel(ftree, factory, pool);
  } else if (mode == "random") {
    result = nbclos::verify_random_parallel(ftree, factory, trials, seed,
                                            pool);
  } else {
    result = nbclos::verify_adversarial_parallel(ftree, *routing, options,
                                                 seed, pool);
  }

  if (json) {
    std::cout << "{\"mode\": \"" << mode << "\", \"topology\": \"ftree(" << n
              << "+" << m << ", " << r << ")\", \"routing\": \""
              << routing->name() << "\", \"threads\": " << pool.thread_count()
              << ",\n \"nonblocking\": " << (result.nonblocking ? "true"
                                                                : "false")
              << ", \"permutations_checked\": " << result.permutations_checked;
    if (space > 0) std::cout << ", \"permutation_space\": " << space;
    if (result.counterexample.has_value()) {
      std::cout << ",\n \"counterexample_collisions\": "
                << result.counterexample_collisions
                << ", \"counterexample\": [";
      bool first = true;
      for (const auto sd : *result.counterexample) {
        if (!first) std::cout << ", ";
        first = false;
        std::cout << "[" << sd.src.value << ", " << sd.dst.value << "]";
      }
      std::cout << "]";
    }
    std::cout << "}\n";
    return result.nonblocking ? 0 : 1;
  }

  std::cout << "ftree(" << n << "+" << m << ", " << r << "), "
            << routing->name() << ", " << mode << " verification ("
            << pool.thread_count() << " threads):\n  permutations checked: "
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

/// Minimal Prometheus scrape endpoint: warm the registry with one small
/// deterministic flow run (so a standalone scrape sees real content),
/// then serve the text exposition on 127.0.0.1.  `--max-requests N`
/// exits cleanly after N responses — what the CI smoke uses; the
/// default serves until killed.
int cmd_metrics_serve(std::vector<std::string> args) {
  std::uint32_t port = 9464;  // the Prometheus-convention exporter range
  std::uint64_t max_requests = 0;
  if (const auto p = take_u32_flag(args, "--port")) port = *p;
  if (const auto n = take_u32_flag(args, "--max-requests")) max_requests = *n;
  if (!args.empty()) {
    throw std::invalid_argument("unknown flag: " + args.front());
  }
#if !(defined(__unix__) || defined(__APPLE__))
  std::cerr << "metrics-serve needs POSIX sockets on this platform\n";
  return 1;
#else
  {
    nbclos::FoldedClos ft(nbclos::FtreeParams{4, 16, 8});
    const auto net = nbclos::build_network(ft);
    const nbclos::YuanNonblockingRouting routing(ft);
    const auto cache =
        nbclos::routing::ChannelRouteCache::materialize(net, routing);
    const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
    const auto traffic = nbclos::sim::TrafficPattern::permutation(
        nbclos::shift_permutation(terminals, 5), terminals);
    nbclos::flow::FlowConfig config;
    config.injection_rate = 0.2;
    config.warmup_cycles = 256;
    config.measure_cycles = 1024;
    config.record_timeseries = true;
    nbclos::flow::FlowSim sim(cache, traffic, config);
    (void)sim.run();
    stash_recorder(sim.recorder());
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "metrics-serve: socket() failed\n";
    return 1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    std::cerr << "metrics-serve: cannot listen on 127.0.0.1:" << port << "\n";
    ::close(fd);
    return 1;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  std::cout << "serving metrics on http://127.0.0.1:" << ntohs(addr.sin_port)
            << "/metrics" << std::endl;

#ifdef MSG_NOSIGNAL
  constexpr int kSendFlags = MSG_NOSIGNAL;  // no SIGPIPE on a closed peer
#else
  constexpr int kSendFlags = 0;
#endif
  std::uint64_t served = 0;
  while (max_requests == 0 || served < max_requests) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) continue;
    char buf[2048];
    const auto got = ::recv(client, buf, sizeof(buf) - 1, 0);
    const std::string request(buf, got > 0 ? static_cast<std::size_t>(got)
                                           : 0);
    const bool want_metrics = request.rfind("GET /metrics", 0) == 0 ||
                              request.rfind("GET / ", 0) == 0;
    std::string body;
    std::string head;
    if (want_metrics) {
      body = nbclos::obs::prom_export_global();
      head =
          "HTTP/1.1 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
    } else {
      body = "not found\n";
      head =
          "HTTP/1.1 404 Not Found\r\n"
          "Content-Type: text/plain; charset=utf-8\r\n";
    }
    const std::string response = head + "Content-Length: " +
                                 std::to_string(body.size()) +
                                 "\r\nConnection: close\r\n\r\n" + body;
    std::size_t off = 0;
    while (off < response.size()) {
      const auto sent = ::send(client, response.data() + off,
                               response.size() - off, kSendFlags);
      if (sent <= 0) break;
      off += static_cast<std::size_t>(sent);
    }
    ::close(client);
    ++served;
  }
  ::close(fd);
  return 0;
#endif
}

int cmd_dot(const std::vector<std::string>& args) {
  const auto [n, r] = fabric_args(args);
  const nbclos::NonblockingFabric fabric(n, r);
  nbclos::DotOptions options;
  options.graph_name = "ftree";
  nbclos::write_dot(std::cout, fabric.to_network(), options);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global observability flags may appear anywhere on the line; strip
  // them before dispatch so every subcommand supports them uniformly.
  std::string metrics_out;
  std::string trace_out;
  std::string prom_out;
  std::vector<std::string> words;
  for (int i = 1; i < argc; ++i) {
    const std::string word = argv[i];
    if (word == "--metrics" && i + 1 < argc) {
      metrics_out = argv[++i];
      continue;
    }
    if (word == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
      continue;
    }
    if (word == "--prom-out" && i + 1 < argc) {
      prom_out = argv[++i];
      continue;
    }
    if (word == "--timeseries-out" && i + 1 < argc) {
      g_timeseries_out = argv[++i];
      continue;
    }
    words.push_back(word);
  }
  if (words.empty()) return usage();
  const std::string command = words.front();
  if (command == "--version" || command == "version") {
    std::cout << nbclos::obs::RunInfo::current().summary() << "\n";
    return 0;
  }
  const std::vector<std::string> args(words.begin() + 1, words.end());

  if (!trace_out.empty()) {
    if (!nbclos::obs::kEnabled) {
      std::cerr << "nbclos: built with NBCLOS_OBS=OFF; trace output will be "
                   "empty\n";
    }
    nbclos::obs::TraceSession::start();
  }
  int rc;
  try {
    if (command == "design" && args.size() >= 1) {
      rc = cmd_design(args);
    } else if (command == "certify" && args.size() >= 1) {
      rc = cmd_certify(args);
    } else if (command == "schedule" && args.size() >= 2) {
      rc = cmd_schedule(args);
    } else if ((command == "simulate" || command == "sim") &&
               args.size() >= 3) {
      rc = cmd_simulate(args);
    } else if (command == "flow-sim" && args.size() >= 3) {
      rc = cmd_flow_sim(args);
    } else if (command == "load-sweep" && args.size() >= 2) {
      rc = cmd_load_sweep(args);
    } else if (command == "saturation" && args.size() >= 3) {
      rc = cmd_saturation(args);
    } else if (command == "circuit" && args.size() >= 3) {
      rc = cmd_circuit(args);
    } else if (command == "fault-sweep" && args.size() >= 3) {
      rc = cmd_fault_sweep(args);
    } else if (command == "verify" && args.size() >= 3) {
      rc = cmd_verify(args);
    } else if (command == "dot" && args.size() >= 1) {
      rc = cmd_dot(args);
    } else if (command == "metrics-serve") {
      rc = cmd_metrics_serve(args);
    } else {
      const bool known =
          command == "design" || command == "certify" ||
          command == "schedule" || command == "simulate" || command == "sim" ||
          command == "flow-sim" || command == "load-sweep" ||
          command == "saturation" ||
          command == "circuit" || command == "fault-sweep" ||
          command == "verify" || command == "dot";
      if (!known) std::cerr << "nbclos: unknown command '" << command << "'\n";
      return usage();
    }
  } catch (const UsageError& e) {
    std::cerr << "nbclos " << command << ": " << e.what() << "\n";
    rc = usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  }

  if (!trace_out.empty()) {
    nbclos::obs::TraceSession::stop();
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "error: cannot write trace to '" << trace_out << "'\n";
      return rc != 0 ? rc : 1;
    }
    if (ends_with(trace_out, ".jsonl")) {
      nbclos::obs::TraceSession::write_jsonl(out);
    } else {
      nbclos::obs::TraceSession::write_chrome(out);
    }
  }
  if (!metrics_out.empty()) {
    if (metrics_out == "-") {
      write_metrics_json(std::cout);
    } else {
      std::ofstream out(metrics_out);
      if (!out) {
        std::cerr << "error: cannot write metrics to '" << metrics_out
                  << "'\n";
        return rc != 0 ? rc : 1;
      }
      write_metrics_json(out);
    }
  }
  if (!prom_out.empty()) {
    const auto body = nbclos::obs::prom_export_global();
    if (prom_out == "-") {
      std::cout << body;
    } else {
      std::ofstream out(prom_out);
      if (!out) {
        std::cerr << "error: cannot write metrics to '" << prom_out << "'\n";
        return rc != 0 ? rc : 1;
      }
      out << body;
    }
  }
  if (!g_timeseries_out.empty()) {
    if (g_timeseries_out == "-") {
      nbclos::obs::write_timeseries_json(std::cout, g_series, g_series_config);
    } else if (!nbclos::obs::write_timeseries_file(g_timeseries_out, g_series,
                                                   g_series_config)) {
      std::cerr << "error: cannot write timeseries to '" << g_timeseries_out
                << "'\n";
      return rc != 0 ? rc : 1;
    }
  }
  return rc;
}
