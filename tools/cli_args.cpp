#include "cli_args.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <system_error>

#include "nbclos/routing/route_cache.hpp"

namespace nbclos::cli {
namespace {

[[noreturn]] void fail(const std::string& reason) { throw UsageError(reason); }

std::string str(std::uint64_t value) { return std::to_string(value); }

bool is_flag(std::string_view word) { return word.starts_with("--"); }

/// The whole of `text` as an unsigned decimal in the spec's range.
std::uint64_t parse_uint(const std::string& text, const ArgSpec& spec) {
  const std::string name = spec.name;
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc{} && value > spec.max)) {
    fail(name + " must be at most " + str(spec.max));
  }
  if (ec != std::errc{} || stop != end) {
    fail(name + " must be an unsigned integer, not '" + text + "'");
  }
  if (value < spec.min) fail(name + " must be at least " + str(spec.min));
  return value;
}

/// The whole of `text` as a decimal in [0, 1].
double parse_load(const std::string& text, const char* name) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end || !(value >= 0.0 && value <= 1.0)) {
    fail(std::string(name) + " must be a number in [0, 1], not '" + text +
         "'");
  }
  return value;
}

/// Fail when `shape` needs more than 2^32 - 1 ids of `what`.  The count
/// is a double, exact below 2^53, so no product wraps and the test is
/// exact.
void check_ids(double count, const std::string& shape, const char* what) {
  if (count > UINT32_MAX) {
    fail(shape + " needs more than 2^32 - 1 " + what + " ids");
  }
}

/// ftree(n+m, r) numbers its 2 (n + m) r links with 32-bit ids.
void check_ftree(std::uint64_t n, std::uint64_t m, std::uint64_t r) {
  check_ids(2.0 * (double(n) + double(m)) * double(r),
            "ftree(n+m, r) with n = " + str(n) + ", m = " + str(m) +
                ", r = " + str(r),
            "link");
}

/// The simulation commands drive a shift permutation by `offset`, which
/// needs more terminals than the offset.
void check_shift(std::uint64_t terminals, std::uint64_t offset,
                 const std::string& fabric, const char* digit) {
  if (offset >= terminals) {
    fail(fabric + " has " + str(terminals) +
         " terminals, too few for the shift permutation by " + digit +
         " + 1 = " + str(offset));
  }
}

/// `<n> <r>` (joined by one space) or `kary:K,H`, put through the shape
/// validator of its kind and checked for the shift permutation.
Topo parse_topo(const std::string& text) {
  Topo topo;
  if (text.starts_with("kary:")) {
    const auto comma = text.find(',');
    if (comma == std::string::npos) fail("k-ary spec is kary:K,H");
    topo.kary = true;
    topo.k = static_cast<std::uint32_t>(parse_uint(
        text.substr(5, comma - 5), {"K of kary:K,H", Type::kUint, 2}));
    topo.h = static_cast<std::uint32_t>(parse_uint(
        text.substr(comma + 1), {"H of kary:K,H", Type::kUint, 1}));
    // K^H terminals and H K^(H-1) switches; pow is exact below 2^53.
    const double terminals = std::pow(double(topo.k), double(topo.h));
    check_ids(terminals + topo.h * terminals / topo.k, text, "vertex");
    check_shift(std::uint64_t(terminals), topo.shift(), text, "K");
    topo.name = "kary(" + str(topo.k) + "," + str(topo.h) + ")";
  } else {
    const auto space = text.find(' ');
    topo.n = static_cast<std::uint32_t>(
        parse_uint(text.substr(0, space), {"<n>", Type::kUint, 1}));
    topo.r = static_cast<std::uint32_t>(
        parse_uint(text.substr(space + 1), {"<r>", Type::kUint, 2}));
    check_ftree(topo.n, std::uint64_t{topo.n} * topo.n, topo.r);
    topo.name = "ftree(" + str(topo.n) + "+" + str(topo.n * topo.n) + ", " +
                str(topo.r) + ")";
    check_shift(std::uint64_t{topo.n} * topo.r, topo.shift(), topo.name,
                "<n>");
  }
  return topo;
}

/// `text` as the value of `spec`.
Value parsed(const ArgSpec& spec, const std::string& text) {
  Value value;
  value.set = true;
  value.text = text;
  if (spec.type == Type::kUint) {
    value.number = parse_uint(text, spec);
  } else if (spec.type == Type::kLoad) {
    value.real = parse_load(text, spec.name);
  } else if (spec.type == Type::kTopo) {
    value.topo = parse_topo(text);
  } else if (spec.type == Type::kRates) {
    std::stringstream csv(text);
    for (std::string item; std::getline(csv, item, ',');) {
      value.list.push_back(parse_load(item, spec.name));
    }
    if (value.list.empty()) fail(std::string(spec.name) + " is empty");
  } else if (spec.type == Type::kEnum &&
             (std::string("|") + spec.meta + '|').find('|' + text + '|') ==
                 std::string::npos) {
    fail(std::string(spec.name) + " must be one of " + spec.meta + ", not '" +
         text + "'");
  }
  return value;
}

// --- shape validators (Command::validate) ---------------------------------

/// certify, dot: ftree(n + n^2, r) with r defaulting to the radix n + n^2.
void check_fabric(const Args& args) {
  const std::uint64_t n = args["<n>"].number;
  check_ftree(n, n * n, args["[r]"].set ? args["[r]"].number : n + n * n);
}

/// A simulation on a `<topo>`: k-ary fabrics route d-mod-k only, and the
/// sharded engines run only pure routings.
void check_routing(const Args& args, const std::string& routing) {
  if (args["<topo>"].topo.kary && routing != "dmodk") {
    fail("k-ary fabrics support only the dmodk routing");
  }
  if (args["--shards"].set && (routing == "random" || routing == "adaptive")) {
    fail("routing '" + routing +
         "' consults global queue state and cannot run sharded");
  }
}

/// sim, load-sweep.
void check_packet_sim(const Args& args) {
  check_routing(args, args["<routing>"].text);
}

/// flow-sim: its routing defaults by topology kind, and its flags must
/// describe a flow config both flow engines run.
void check_flow_sim(const Args& args) {
  if (args["[routing]"].set) check_routing(args, args["[routing]"].text);
  if (const char* reason = flow_config(args).invalid_reason()) fail(reason);
}

/// The adaptive schedule routes permutations of n r leaves.
void check_schedule(const Args& args) {
  check_ids(double(args["<n>"].number) * double(args["<r>"].number),
            "the schedule on <n> * <r> leaves", "leaf");
}

/// saturation drives the shift permutation on ftree(n + n^2, r).
void check_saturation(const Args& args) {
  (void)parse_topo(args["<n>"].text + " " + args["<r>"].text);
}

/// Clos(n, m, r) circuit switch: n r ports, 2 r m links.
void check_circuit(const Args& args) {
  const double n = double(args["<n>"].number);
  const double m = double(args["<m>"].number);
  const double r = double(args["<r>"].number);
  check_ids(std::max(n * r, 2 * r * m), "Clos(<n>, <m>, <r>)", "port or link");
}

void check_fault_sweep(const Args& args) {
  const std::uint64_t n = args["<n>"].number;
  const std::uint64_t r = args["<r>"].number;
  check_ftree(n, n * n, r);
  if (args["<max_failures>"].number > r * n * n) {
    fail("<max_failures> must be at most r * n^2 = " + str(r * n * n) +
         ", the ftree's uplink pairs");
  }
}

void check_verify(const Args& args) {
  const std::uint64_t n = args["<n>"].number;
  const std::uint64_t r = args["<r>"].number;
  const std::uint64_t m = args["--m"].set ? args["--m"].number : n * n;
  check_ftree(n, m, r);
  if (m >= routing::RouteCache::kTopLimit) {
    fail("m (--m, default n^2) must be below " +
         str(routing::RouteCache::kTopLimit));
  }
  if (args["[routing]"].text == "thm3" && m < n * n) {
    fail("thm3 routing needs m >= n^2 top switches");
  }
  if (args["<mode>"].text == "exhaustive" && n * r > 11) {
    fail("exhaustive verification needs n * r <= 11 leaves");
  }
}

// --- the table and its usage text ------------------------------------------

/// An argument that is one of the '|'-separated `choices`.
constexpr ArgSpec choice(const char* name, const char* choices,
                         const char* fallback = nullptr) {
  return {name, Type::kEnum, 0, 0, fallback, choices};
}

constexpr const char* kRoutings = "thm3|dmodk|random|adaptive";
constexpr ArgSpec kShards{"--shards", Type::kUint, 1};
constexpr ArgSpec kThreads{"[threads]", Type::kUint, 0, kMaxThreads, "0"};

/// `head`, then the usage word of each spec, on lines of at most 79
/// columns; continuation lines are indented as deep as `head`.
void append_usage(std::string& out, const std::string& head,
                  const std::vector<ArgSpec>& specs) {
  std::string line = head;
  for (const auto& spec : specs) {
    std::string word = spec.name;
    if (!is_flag(word) && spec.type == Type::kEnum) {
      word.insert(word.size() - 1, std::string(":") + spec.meta);
    } else if (is_flag(word)) {
      if (spec.type != Type::kBool) {
        word += std::string(" ") + (spec.meta != nullptr ? spec.meta : "N");
      }
      word = "[" + word + "]";
    }
    if (line.size() > head.size() && line.size() + 1 + word.size() > 79) {
      out += line + "\n";
      line.assign(head.size(), ' ');
    }
    line += " " + word;
  }
  out += line + "\n";
}

}  // namespace

void Args::declare(const std::vector<ArgSpec>& specs) {
  for (const auto& spec : specs) {
    values_.emplace_back(&spec, spec.fallback != nullptr
                                    ? parsed(spec, spec.fallback)
                                    : Value{});
  }
}

std::pair<const ArgSpec*, Value>* Args::find(std::string_view name) {
  for (auto& entry : values_) {
    if (entry.first->name == name) return &entry;
  }
  return nullptr;
}

const Value& Args::operator[](std::string_view name) const {
  for (const auto& [spec, value] : values_) {
    if (spec->name == name) return value;
  }
  throw std::logic_error("undeclared argument " + std::string(name));
}

const std::vector<Command>& commands() {
  using enum Type;
  static const std::vector<Command> table = {
      {CommandId::kDesign, "design", nullptr,
       {{"<radix>", kUint}, {"[target_ports]", kUint, 0, UINT64_MAX}}},
      {CommandId::kCertify, "certify", nullptr,
       {{"<n>", kUint, 2}, {"[r]", kUint, 2}}, check_fabric},
      {CommandId::kSchedule, "schedule", nullptr,
       {{"<n>", kUint, 2}, {"<r>", kUint, 1}}, check_schedule},
      {CommandId::kSimulate, "sim", "simulate",
       {{"<topo>", kTopo}, {"<load>", kLoad}, choice("<routing>", kRoutings),
        kShards},
       check_packet_sim},
      {CommandId::kFlowSim, "flow-sim", nullptr,
       {{"<topo>", kTopo}, {"<load>", kLoad}, choice("[routing]", "thm3|dmodk"),
        kShards, {"--packet", kUint, 1},
        {"--buffers", kUint, 1, flow::FlowConfig::kMaxBufferFlits},
        {"--vcs", kUint, 1, flow::FlowConfig::kMaxVcs},
        choice("--switching", "wormhole|vct"), {"--credit", kBool},
        {"--onoff", kBool},
        {"--credit-delay", kUint, 1, flow::FlowConfig::kMaxCreditDelay},
        {"--seed", kUint, 0, UINT64_MAX}, {"--json", kBool}},
       check_flow_sim},
      {CommandId::kLoadSweep, "load-sweep", nullptr,
       {{"<topo>", kTopo}, choice("<routing>", kRoutings),
        {"[rates_csv]", kRates, 0, 0, "0.1,0.3,0.5,0.7,0.9,1.0"}, kThreads,
        kShards},
       check_packet_sim},
      {CommandId::kSaturation, "saturation", nullptr,
       {{"<n>", kUint, 1}, {"<r>", kUint, 2}, choice("<routing>", kRoutings),
        {"[iterations]", kUint, 0, UINT32_MAX, "6"}, kThreads},
       check_saturation},
      {CommandId::kCircuit, "circuit", nullptr,
       {{"<n>", kUint, 1}, {"<m>", kUint, 1}, {"<r>", kUint, 2},
        {"[steps]", kUint, 0, UINT64_MAX, "20000"}},
       check_circuit},
      {CommandId::kFaultSweep, "fault-sweep", nullptr,
       {{"<n>", kUint, 2}, {"<r>", kUint, 2}, {"<max_failures>", kUint},
        {"[perms]", kUint, 1}, {"[seed]", kUint, 0, UINT64_MAX}},
       check_fault_sweep},
      {CommandId::kVerify, "verify", nullptr,
       {{"<n>", kUint, 1}, {"<r>", kUint, 2},
        choice("<mode>", "exhaustive|random|adversarial"),
        choice("[routing]", "thm3|dmodk", "thm3"),
        {"--m", kUint, 1, routing::RouteCache::kTopLimit - 1},
        {"--threads", kUint, 0, kMaxThreads, "1"},
        {"--trials", kUint, 1, UINT64_MAX, "10000"}, {"--restarts", kUint},
        {"--steps", kUint}, {"--seed", kUint, 0, UINT64_MAX, "1"},
        {"--json", kBool}},
       check_verify},
      {CommandId::kDot, "dot", nullptr,
       {{"<n>", kUint, 2}, {"[r]", kUint, 2}}, check_fabric},
      {CommandId::kVersion, "--version", "version", {}},
  };
  return table;
}

const std::vector<ArgSpec>& global_options() {
  static const std::vector<ArgSpec> options = {
      {.name = "--metrics", .type = Type::kText, .meta = "FILE|-"},
      {.name = "--trace-out", .type = Type::kText, .meta = "FILE[.jsonl]|-"},
      {.name = "--prom-out", .type = Type::kText, .meta = "FILE|-"},
      {.name = "--timeseries-out", .type = Type::kText, .meta = "FILE[.csv]|-"},
  };
  return options;
}

Args parse(const std::vector<std::string>& words) {
  Args args;
  args.declare(global_options());
  std::string name;  // the command word, as typed
  std::vector<std::string> positional;
  try {
    for (std::size_t i = 0; i < words.size(); ++i) {
      const std::string& word = words[i];
      auto* flag = is_flag(word) ? args.find(word) : nullptr;
      if (flag != nullptr && flag->first->type == Type::kBool) {
        flag->second.set = true;
      } else if (flag != nullptr) {
        if (++i == words.size()) fail(word + " needs a value");
        flag->second = parsed(*flag->first, words[i]);
      } else if (args.command_ == nullptr) {  // the first other word
        for (const auto& command : commands()) {
          if (word == command.name ||
              (command.alias != nullptr && word == command.alias)) {
            args.command_ = &command;
          }
        }
        if (args.command_ == nullptr) fail("unknown command '" + word + "'");
        name = word;
        args.declare(args.command_->args);
      } else if (is_flag(word)) {
        fail("unknown flag '" + word + "'");
      } else {
        positional.push_back(word);
      }
    }
    if (args.command_ == nullptr) fail("missing command");
    auto next = positional.begin();  // the first word not yet assigned
    for (auto& [spec, value] : args.values_) {
      if (is_flag(spec->name)) continue;
      if (next == positional.end()) {
        if (spec->name[0] == '<') fail(std::string("missing ") + spec->name);
        break;
      }
      std::string text = *next++;
      if (spec->type == Type::kTopo && !text.starts_with("kary:")) {
        if (next == positional.end()) fail("missing <r>");
        text += " " + *next++;
      }
      value = parsed(*spec, text);
    }
    if (next != positional.end()) fail("unexpected argument '" + *next + "'");
    if (args.command_->validate != nullptr) args.command_->validate(args);
  } catch (const UsageError& e) {
    fail("nbclos" + (name.empty() ? "" : " " + name) + ": " + e.what());
  }
  return args;
}

std::string usage() {
  std::string out = "usage:\n";
  for (const auto& command : commands()) {
    std::string head = std::string("  nbclos ") + command.name;
    if (command.alias != nullptr) head += std::string("|") + command.alias;
    append_usage(out, head, command.args);
  }
  out += "  (<topo> = <n> <r> for ftree(n+n^2, r), or kary:K,H)\n";
  append_usage(out, "global options:", global_options());
  return out;
}

flow::FlowConfig flow_config(const Args& args) {
  flow::FlowConfig config;
  config.injection_rate = args["<load>"].real;
  const auto take = [&args](const char* flag, std::uint32_t& field) {
    if (args[flag].set) field = args[flag].u32();
  };
  take("--packet", config.packet_flits);
  take("--buffers", config.buffer_flits);
  take("--vcs", config.vcs);
  take("--credit-delay", config.credit_delay);
  if (args["--seed"].set) config.seed = args["--seed"].number;
  if (args["--switching"].text == "vct") {
    config.switching = flow::Switching::kVirtualCutThrough;
  }
  if (args["--onoff"].set) config.backpressure = flow::Backpressure::kOnOff;
  // The sharded engine's only mode; the serial run uses it too, so the
  // output does not depend on --shards.
  config.counter_injection = true;
  return config;
}

}  // namespace nbclos::cli
