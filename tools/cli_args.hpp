/// \file cli_args.hpp
/// \brief The `nbclos` command table and its parser.
///
/// Every command is declared once in commands(): its name and alias, its
/// positional arguments and flags, and for each its type, range and
/// default.  parse() turns a command line into typed values from that
/// table alone, then runs the command's shape validator, so every usage
/// error — a malformed number, a value out of range, a missing or extra
/// word, an unknown flag, a topology the library cannot build — is
/// raised before anything is built.  usage() is generated from the same
/// table.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nbclos/flow/config.hpp"

namespace nbclos::cli {

/// A command line the tool cannot run.  what() is the whole message,
/// "nbclos <command>: <reason>"; main() prints it with the usage and
/// exits 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Most worker threads a command may ask for (`--threads`, `[threads]`).
inline constexpr std::uint64_t kMaxThreads = 256;

enum class Type : std::uint8_t {
  kUint,   ///< unsigned decimal in [min, max]
  kLoad,   ///< finite decimal in [0, 1]
  kRates,  ///< comma-separated loads, at least one
  kEnum,   ///< one of the '|'-separated choices in `meta`
  kBool,   ///< a flag that takes no value
  kText,   ///< any word (a file name)
  kTopo,   ///< `<n> <r>` (two words, ftree(n+n^2, r)) or `kary:K,H` (one)
};

/// One positional argument (`<name>` required, `[name]` optional) or
/// flag (`--name`).
struct ArgSpec {
  const char* name;
  Type type;
  std::uint64_t min = 0;
  std::uint64_t max = UINT32_MAX;
  const char* fallback = nullptr;  ///< default, as typed; nullptr = none
  const char* meta = nullptr;      ///< kEnum: the choices; else usage word
};

enum class CommandId : std::uint8_t {
  kDesign, kCertify, kSchedule, kSimulate, kFlowSim, kLoadSweep,
  kSaturation, kCircuit, kFaultSweep, kVerify, kDot, kVersion,
};

class Args;

struct Command {
  CommandId id;
  const char* name;
  const char* alias;          ///< nullptr = none
  std::vector<ArgSpec> args;  ///< positionals in order, then flags
  /// Checks across arguments (topology shapes); nullptr = none.
  void (*validate)(const Args&) = nullptr;
};

/// A parsed `<topo>`.
struct Topo {
  bool kary = false;
  std::uint32_t n = 0, r = 0;  ///< ftree(n + n^2, r), when !kary
  std::uint32_t k = 0, h = 0;  ///< K-ary H-tree, when kary
  std::string name;            ///< "ftree(4+16, 8)" or "kary(4,3)"

  /// Offset of the shift permutation the simulation commands drive.
  [[nodiscard]] std::uint32_t shift() const { return (kary ? k : n) + 1; }
};

/// The value of one declared argument.
struct Value {
  bool set = false;          ///< given on the line, or defaulted
  std::string text;          ///< as typed
  std::uint64_t number = 0;  ///< kUint
  double real = 0.0;         ///< kLoad
  std::vector<double> list;  ///< kRates
  Topo topo;                 ///< kTopo

  std::uint32_t u32() const { return static_cast<std::uint32_t>(number); }
};

/// A parsed and validated command line.
class Args {
 public:
  [[nodiscard]] const Command& command() const { return *command_; }
  /// The argument, flag or global option declared as `name`.  Throws
  /// std::logic_error when the command declares no such name.
  [[nodiscard]] const Value& operator[](std::string_view name) const;

 private:
  friend Args parse(const std::vector<std::string>& words);
  /// Add `specs`, each with its default value, if it has one.
  void declare(const std::vector<ArgSpec>& specs);
  /// The entry declared as `name`; nullptr when none is.
  [[nodiscard]] std::pair<const ArgSpec*, Value>* find(std::string_view name);

  const Command* command_ = nullptr;
  std::vector<std::pair<const ArgSpec*, Value>> values_;
};

/// Every command, in usage order.
[[nodiscard]] const std::vector<Command>& commands();

/// Options every command accepts, anywhere on the line.
[[nodiscard]] const std::vector<ArgSpec>& global_options();

/// Parse `words` (argv without argv[0]) against the table and validate
/// it; throws UsageError.
[[nodiscard]] Args parse(const std::vector<std::string>& words);

/// The usage text, generated from the table.
[[nodiscard]] std::string usage();

/// The flow-sim configuration its flags describe (FlowConfig defaults
/// for the flags not given).
[[nodiscard]] flow::FlowConfig flow_config(const Args& args);

}  // namespace nbclos::cli
