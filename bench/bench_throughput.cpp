/// \file bench_throughput.cpp
/// \brief Figure-style experiment A (the paper's motivation, refs [5][7]):
///        delivered throughput under permutation traffic, across routings,
///        in the packet-level simulator.
///
/// Series:
///   * crossbar          — the ideal the paper wants to emulate;
///   * nonblocking ftree — ftree(n+n^2, r) + Theorem 3 table routing;
///   * d-mod-k ftree     — same topology, deployed-style static routing;
///   * d-mod-k (m = n)   — the "rearrangeably nonblocking" budget fabric;
///   * random per packet — oblivious spreading;
///   * least-queue       — local adaptive packet steering.
/// Expected shape: crossbar == nonblocking ftree (flat at offered load);
/// static/oblivious schemes saturate well below 1.0 on adversarial
/// permutations.
///
/// All (series x load) runs of a pattern execute concurrently over a
/// ThreadPool through the OracleFactory load_sweep, with per-run seeds —
/// output is identical at any thread count.  Flags: --csv appends CSV
/// blocks, --json emits a single JSON document instead of tables,
/// --quick shrinks the simulated window (CI smoke runs).
#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/util/json.hpp"
#include "nbclos/util/table.hpp"

namespace {

using nbclos::sim::SimConfig;

bool quick = false;

SimConfig base_config() {
  SimConfig config;
  config.warmup_cycles = quick ? 300 : 1500;
  config.measure_cycles = quick ? 1200 : 6000;
  config.queue_capacity = 8;
  config.seed = 11;
  return config;
}

/// Adversarial permutation for D-mod-K with m = n: all n destinations of
/// switch v share local number v mod n, so static destination-keyed
/// routing funnels the whole switch through one uplink.
nbclos::Permutation funnel_small_m(std::uint32_t n, std::uint32_t r) {
  nbclos::Permutation pattern;
  for (std::uint32_t v = 0; v < r; ++v) {
    for (std::uint32_t k = 0; k < n; ++k) {
      pattern.push_back({nbclos::LeafId{v * n + k},
                         nbclos::LeafId{((v + 1 + k) % r) * n + (v % n)}});
    }
  }
  return pattern;
}

/// Adversarial permutation for D-mod-K with m = n^2 = 16 on 32 leaves:
/// each source switch v sends to both members of two mod-16 residue
/// classes ({2v+4, 2v+20} and {2v+5, 2v+21} mod 32), so its four flows
/// collapse onto two uplinks whenever the routing keys on dst mod m for
/// m in {4, 16}.  The classes partition the leaves, so this is a full
/// permutation, and every pair is cross-switch.
nbclos::Permutation funnel_mod16() {
  nbclos::Permutation pattern;
  for (std::uint32_t v = 0; v < 8; ++v) {
    const std::uint32_t base = 2 * v;
    // k ordering chosen so no source maps to itself.
    pattern.push_back({nbclos::LeafId{v * 4 + 0},
                       nbclos::LeafId{(base + 20) % 32}});
    pattern.push_back({nbclos::LeafId{v * 4 + 1},
                       nbclos::LeafId{(base + 4) % 32}});
    pattern.push_back({nbclos::LeafId{v * 4 + 2},
                       nbclos::LeafId{(base + 5) % 32}});
    pattern.push_back({nbclos::LeafId{v * 4 + 3},
                       nbclos::LeafId{(base + 21) % 32}});
  }
  return pattern;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--csv") csv = true;
    if (flag == "--json") json = true;
    if (flag == "--quick") quick = true;
  }

  constexpr std::uint32_t kN = 4;
  constexpr std::uint32_t kR = 8;  // 32 terminals
  const nbclos::FoldedClos nb_ft(nbclos::FtreeParams{kN, kN * kN, kR});
  const nbclos::FoldedClos budget_ft(nbclos::FtreeParams{kN, kN, kR});
  const auto nb_net = nbclos::build_network(nb_ft);
  const auto budget_net = nbclos::build_network(budget_ft);
  const auto xbar_net = nbclos::build_crossbar(kN * kR);

  const nbclos::YuanNonblockingRouting yuan(nb_ft);

  const std::vector<double> loads{0.1, 0.3, 0.5, 0.7, 0.9, 1.0};

  using nbclos::sim::UplinkPolicy;
  const auto ftree_factory = [&](const nbclos::FoldedClos& ft,
                                 UplinkPolicy policy,
                                 const nbclos::SinglePathRouting* routing) {
    return nbclos::sim::OracleFactory(
        [&ft, policy, routing](std::uint64_t run_seed,
                               nbclos::fault::DegradedView*) {
          return std::make_unique<nbclos::sim::FtreeOracle>(ft, policy,
                                                            routing, run_seed);
        });
  };

  struct SeriesSpec {
    std::string name;
    const nbclos::Network* net;
    nbclos::sim::OracleFactory factory;
  };
  const std::vector<SeriesSpec> specs{
      {"crossbar", &xbar_net,
       [&](std::uint64_t, nbclos::fault::DegradedView*)
           -> std::unique_ptr<nbclos::sim::RoutingOracle> {
         return std::make_unique<nbclos::sim::CrossbarOracle>(kN * kR);
       }},
      {"nonblocking ftree (m=n^2, Thm 3)", &nb_net,
       ftree_factory(nb_ft, UplinkPolicy::kTable, &yuan)},
      {"d-mod-k ftree (m=n^2)", &nb_net,
       ftree_factory(nb_ft, UplinkPolicy::kDModK, nullptr)},
      {"d-mod-k ftree (m=n)", &budget_net,
       ftree_factory(budget_ft, UplinkPolicy::kDModK, nullptr)},
      {"random-per-packet (m=n^2)", &nb_net,
       ftree_factory(nb_ft, UplinkPolicy::kRandom, nullptr)},
      {"least-queue adaptive (m=n^2)", &nb_net,
       ftree_factory(nb_ft, UplinkPolicy::kLeastQueue, nullptr)},
  };

  const auto wall_start = std::chrono::steady_clock::now();
  nbclos::ThreadPool pool;
  std::optional<nbclos::JsonWriter> writer;
  if (json) {
    writer.emplace(std::cout);
    writer->begin_object();
    writer->member("experiment", "throughput_vs_load");
    writer->key("patterns").begin_array();
  }

  const auto run_pattern = [&](const std::string& title, const std::string& key,
                               const nbclos::Permutation& pattern) {
    nbclos::validate_permutation(pattern, kN * kR);
    const auto traffic =
        nbclos::sim::TrafficPattern::permutation(pattern, kN * kR);

    // Every (series, load) pair is an independent simulation with a
    // per-run seed, so the whole pattern fans out over the pool.
    std::vector<std::vector<nbclos::sim::SimResult>> series(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto config = base_config();
      config.seed = base_config().seed + i;  // distinct streams per series
      series[i] = nbclos::sim::load_sweep(*specs[i].net, specs[i].factory,
                                          traffic, config, loads, &pool);
    }

    if (json) {
      writer->begin_object();
      writer->member("pattern", key);
      writer->key("loads").begin_array();
      for (const double load : loads) writer->value(load);
      writer->end_array();
      writer->key("series").begin_array();
      for (std::size_t i = 0; i < specs.size(); ++i) {
        writer->begin_object();
        writer->member("name", specs[i].name);
        writer->key("accepted_throughput").begin_array();
        for (const auto& result : series[i]) {
          writer->value(result.accepted_throughput);
        }
        writer->end_array();
        writer->key("mean_latency").begin_array();
        for (const auto& result : series[i]) writer->value(result.mean_latency);
        writer->end_array();
        writer->key("p99_latency").begin_array();
        for (const auto& result : series[i]) writer->value(result.p99_latency);
        writer->end_array();
        writer->end_object();
      }
      writer->end_array();
      writer->end_object();
      return;
    }

    std::cout << title << "\n\n";
    std::vector<std::string> headers{"routing \\ load"};
    for (const double load : loads) {
      headers.push_back(nbclos::format_double(load));
    }
    nbclos::TextTable table(headers);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::vector<std::string> row{specs[i].name};
      for (const auto& result : series[i]) {
        row.push_back(nbclos::format_double(result.accepted_throughput));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    if (csv) table.print_csv(std::cout);

    std::cout << "\nMean packet latency [cycles] at the same loads:\n";
    nbclos::TextTable lat(headers);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::vector<std::string> row{specs[i].name};
      for (const auto& result : series[i]) {
        row.push_back(nbclos::format_double(result.mean_latency, 1));
      }
      lat.add_row(std::move(row));
    }
    lat.print(std::cout);
    if (csv) lat.print_csv(std::cout);
    std::cout << "\n";
  };

  run_pattern(
      "Fig-A1 — accepted throughput [flits/cycle/terminal] vs offered "
      "load,\nuplink-funnel permutation (adversarial for m = n static "
      "routing), 32 terminals",
      "uplink_funnel", funnel_small_m(kN, kR));
  run_pattern(
      "Fig-A2 — same series on the mod-16 residue-funnel permutation "
      "(adversarial\nfor m = n^2 static routing)",
      "mod16_residue_funnel", funnel_mod16());

  if (json) {
    writer->end_array();
    auto manifest = nbclos::obs::RunInfo::current();
    manifest.seed = base_config().seed;
    manifest.threads = static_cast<std::uint32_t>(pool.thread_count());
    manifest.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    writer->key("manifest");
    manifest.write_json(*writer);
    writer->end_object();
    std::cout << "\n";
    return 0;
  }
  std::cout << "Expected shape (paper + refs [5][7]): the Theorem 3 fabric "
               "tracks the crossbar\non BOTH patterns; every static "
               "destination-keyed configuration has a permutation\nthat "
               "collapses it (A1 kills m = n, A2 kills m = n^2); oblivious "
               "spreading and\nlocal packet adaptivity recover part — but "
               "not all — of the gap.  No static\nscheme below m = n^2 with "
               "the (i,j) structure can escape this — that is\nTheorem 2.\n";
  return 0;
}
