/// \file test_cli_args.cpp
/// \brief The `nbclos` command table drives every usage error.  Walking
///        the table: for every numeric argument of every command, a
///        malformed, an out-of-range and a missing value is a UsageError
///        whose message names the argument; so are an undeclared flag, an
///        extra word and a global option with no value; and the generated
///        usage names every command, alias and flag.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"

namespace nbclos::cli {
namespace {

/// A valid value for every argument of every command.  Each command's
/// values together form a line parse() accepts.
const std::map<std::string, std::map<std::string, std::string>> kValid = {
    {"design", {{"<radix>", "10"}, {"[target_ports]", "5000"}}},
    {"certify", {{"<n>", "4"}, {"[r]", "8"}}},
    {"schedule", {{"<n>", "4"}, {"<r>", "8"}}},
    {"sim",
     {{"<topo>", "4 8"}, {"<load>", "0.5"}, {"<routing>", "thm3"},
      {"--shards", "2"}}},
    {"flow-sim",
     {{"<topo>", "4 8"}, {"<load>", "0.5"}, {"[routing]", "dmodk"},
      {"--shards", "2"}, {"--packet", "4"}, {"--buffers", "8"},
      {"--vcs", "2"}, {"--switching", "vct"}, {"--credit", ""},
      {"--onoff", ""}, {"--credit-delay", "2"}, {"--seed", "3"},
      {"--json", ""}}},
    {"load-sweep",
     {{"<topo>", "4 8"}, {"<routing>", "dmodk"}, {"[rates_csv]", "0.2,0.6"},
      {"[threads]", "2"}, {"--shards", "2"}}},
    {"saturation",
     {{"<n>", "4"}, {"<r>", "8"}, {"<routing>", "random"},
      {"[iterations]", "3"}, {"[threads]", "2"}}},
    {"circuit", {{"<n>", "4"}, {"<m>", "7"}, {"<r>", "6"}, {"[steps]", "100"}}},
    {"fault-sweep",
     {{"<n>", "2"}, {"<r>", "4"}, {"<max_failures>", "8"}, {"[perms]", "16"},
      {"[seed]", "77"}}},
    {"verify",
     {{"<n>", "2"}, {"<r>", "4"}, {"<mode>", "random"}, {"[routing]", "thm3"},
      {"--m", "4"}, {"--threads", "2"}, {"--trials", "100"},
      {"--restarts", "2"}, {"--steps", "10"}, {"--seed", "1"},
      {"--json", ""}}},
    {"dot", {{"<n>", "2"}, {"[r]", "3"}}},
    {"--version", {}},
};

bool is_flag(const ArgSpec& spec) { return spec.name[0] == '-'; }

bool is_numeric(const ArgSpec& spec) {
  return spec.type == Type::kUint || spec.type == Type::kLoad ||
         spec.type == Type::kRates;
}

/// The valid line of `command`, with the value of the argument `name`
/// replaced by `value` or, when `value` is nullopt, `name` left out — a
/// positional together with every positional after it, so that none
/// shifts into its place.
std::vector<std::string> line(const Command& command,
                              const std::string& name = "",
                              const std::optional<std::string>& value = "") {
  std::vector<std::string> words{command.name};
  bool truncated = false;
  for (const auto& spec : command.args) {
    const bool target = name == spec.name;
    if ((target && !value) || (truncated && !is_flag(spec))) {
      truncated = truncated || !is_flag(spec);
      continue;
    }
    if (is_flag(spec)) words.emplace_back(spec.name);
    if (spec.type == Type::kBool) continue;
    std::istringstream text(target ? *value
                                   : kValid.at(command.name).at(spec.name));
    for (std::string word; text >> word;) words.push_back(word);
  }
  return words;
}

std::string joined(const std::vector<std::string>& words) {
  std::string out;
  for (const auto& word : words) out += " " + word;
  return out;
}

/// parse(words) throws a UsageError whose message contains `needle`.
void expect_usage_error(const std::vector<std::string>& words,
                        const std::string& needle) {
  try {
    (void)parse(words);
    ADD_FAILURE() << "nbclos" << joined(words) << " parsed";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "nbclos" << joined(words) << ": '" << e.what()
        << "' does not name " << needle;
  }
}

/// Out of the range a numeric argument declares.
std::string out_of_range(const ArgSpec& spec) {
  switch (spec.type) {
    case Type::kLoad:
      return "1.5";
    case Type::kRates:
      return "0.5,1.5";
    default:
      if (spec.min > 0) return std::to_string(spec.min - 1);
      if (spec.max == UINT64_MAX) return "18446744073709551616";
      return std::to_string(spec.max + 1);
  }
}

TEST(CliArgs, EveryCommandParsesItsValidLine) {
  for (const auto& command : commands()) {
    ASSERT_TRUE(kValid.count(command.name)) << command.name;
    const auto args = parse(line(command));
    EXPECT_EQ(args.command().id, command.id) << command.name;
    if (command.alias != nullptr) {
      auto words = line(command);
      words[0] = command.alias;
      EXPECT_EQ(parse(words).command().id, command.id) << command.alias;
    }
  }
}

TEST(CliArgs, ValuesAreTypedAndDefaulted) {
  const auto sim = parse({"sim", "kary:4,3", "0.25", "dmodk"});
  EXPECT_TRUE(sim["<topo>"].topo.kary);
  EXPECT_EQ(sim["<topo>"].topo.name, "kary(4,3)");
  EXPECT_EQ(sim["<load>"].real, 0.25);
  EXPECT_FALSE(sim["--shards"].set);
  const auto sweep = parse({"load-sweep", "4", "8", "thm3", "--metrics", "-"});
  EXPECT_EQ(sweep["<topo>"].topo.name, "ftree(4+16, 8)");
  EXPECT_EQ(sweep["[rates_csv]"].list,
            (std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}));
  EXPECT_EQ(sweep["[threads]"].number, 0U);
  EXPECT_EQ(sweep["--metrics"].text, "-");
  EXPECT_EQ(parse({"verify", "2", "4", "random"})["--trials"].number, 10000U);
}

TEST(CliArgs, EveryNumericArgumentRejectsBadValues) {
  for (const auto& command : commands()) {
    for (const auto& spec : command.args) {
      if (!is_numeric(spec)) continue;
      expect_usage_error(line(command, spec.name, "x"), spec.name);
      expect_usage_error(line(command, spec.name, out_of_range(spec)),
                         spec.name);
      if (is_flag(spec)) {
        auto words = line(command, spec.name, std::nullopt);
        words.emplace_back(spec.name);
        expect_usage_error(words, spec.name);
      } else if (spec.name[0] == '<') {
        expect_usage_error(line(command, spec.name, std::nullopt), spec.name);
      }
    }
  }
}

TEST(CliArgs, TopologyWordsRejectBadValues) {
  for (const char* command : {"sim", "flow-sim", "load-sweep"}) {
    const Command* spec = nullptr;
    for (const auto& c : commands()) {
      if (c.name == std::string(command)) spec = &c;
    }
    ASSERT_NE(spec, nullptr);
    const std::vector<std::pair<const char*, const char*>> cases = {
        {"x 8", "<n>"},        {"4 x", "<r>"},
        {"0 8", "<n>"},        {"4 1", "<r>"},
        {"kary:x,3", "K of"},  {"kary:4,x", "H of"},
        {"kary:1,3", "K of"},  {"kary:4,0", "H of"},
        {"kary:4", "kary:K,H"}};
    for (const auto& [topo, needle] : cases) {
      expect_usage_error(line(*spec, "<topo>", topo), needle);
    }
    expect_usage_error(line(*spec, "<topo>", std::nullopt), "<topo>");
    expect_usage_error({command, "4"}, "<r>");
  }
}

TEST(CliArgs, EveryEnumRejectsAnUndeclaredChoice) {
  for (const auto& command : commands()) {
    for (const auto& spec : command.args) {
      if (spec.type != Type::kEnum) continue;
      expect_usage_error(line(command, spec.name, "bogus"), spec.name);
      if (is_flag(spec)) {
        auto words = line(command, spec.name, std::nullopt);
        words.emplace_back(spec.name);
        expect_usage_error(words, spec.name);
      }
    }
  }
}

TEST(CliArgs, UndeclaredFlagExtraWordAndValuelessGlobalAreRejected) {
  for (const auto& command : commands()) {
    auto words = line(command);
    words.emplace_back("--bogus");
    expect_usage_error(words, "--bogus");
    words.back() = "extra";
    expect_usage_error(words, "extra");
    for (const auto& option : global_options()) {
      words.back() = option.name;
      expect_usage_error(words, option.name);
    }
  }
  expect_usage_error({"bogus"}, "bogus");
  expect_usage_error({}, "command");
}

TEST(CliArgs, ThreadAndShardCountsAreBounded) {
  const auto threads = std::to_string(kMaxThreads + 1);
  expect_usage_error({"verify", "2", "4", "random", "--threads", threads},
                     "--threads must be at most");
  expect_usage_error({"load-sweep", "4", "8", "dmodk", "0.5", threads},
                     "[threads] must be at most");
  expect_usage_error({"saturation", "4", "8", "dmodk", "6", threads},
                     "[threads] must be at most");
  expect_usage_error({"sim", "4", "8", "0.5", "dmodk", "--shards", "0"},
                     "--shards must be at least 1");
  expect_usage_error({"flow-sim", "4", "8", "0.5", "--shards", "0"},
                     "--shards must be at least 1");
}

/// A flow config the engine would refuse, or size past memory, is a
/// usage error at its flag: the credit delay line and the FIFO rings
/// are sized from these two values.
TEST(CliArgs, FlowBufferDepthAndCreditDelayAreBounded) {
  expect_usage_error({"flow-sim", "kary:10,2", "0.05", "--credit-delay", "0"},
                     "--credit-delay must be at least 1");
  expect_usage_error(
      {"flow-sim", "kary:10,2", "0.05", "--credit-delay",
       std::to_string(flow::FlowConfig::kMaxCreditDelay + 1)},
      "--credit-delay must be at most 1024");
  expect_usage_error(
      {"flow-sim", "kary:10,2", "0.05", "--credit-delay", "4294967295"},
      "--credit-delay must be at most 1024");
  expect_usage_error({"flow-sim", "4", "8", "0.5", "--buffers", "4294967295"},
                     "--buffers must be at most 65536");
  expect_usage_error(
      {"flow-sim", "4", "8", "0.5", "--buffers",
       std::to_string(flow::FlowConfig::kMaxBufferFlits + 1)},
      "--buffers must be at most 65536");
  for (const char* delay : {"1", "1024"}) {
    EXPECT_NO_THROW((void)parse({"flow-sim", "4", "8", "0.5", "--credit-delay",
                                 delay, "--buffers", "65536"}))
        << delay;
  }
}

TEST(CliArgs, UsageNamesEveryCommandAliasAndFlag) {
  const std::string text = usage();
  for (const auto& command : commands()) {
    EXPECT_NE(text.find(command.name), std::string::npos) << command.name;
    if (command.alias != nullptr) {
      EXPECT_NE(text.find(command.alias), std::string::npos) << command.alias;
    }
    for (const auto& spec : command.args) {
      if (is_flag(spec)) {
        EXPECT_NE(text.find(spec.name), std::string::npos) << spec.name;
      }
    }
  }
  for (const auto& option : global_options()) {
    EXPECT_NE(text.find(option.name), std::string::npos) << option.name;
  }
}

}  // namespace
}  // namespace nbclos::cli
