#pragma once
// The option table: every conf key and every command-line flag of the
// four CAPES tools, declared once (core/options.cpp). One static row
// names a conf key and/or a flag, its value grammar and range, the field
// it sets in an EvaluationPreset (or, for flags that steer a tool rather
// than the tuner, in a CommandLine), and a doc line. The same rows drive
//
//   * the conf overlay (apply_conf) and its inverse (emit_conf),
//   * the strict argv parsers of capes_run, capes_agentd, capes_replay
//     and capes_daemond (parse_command_line / parse_or_exit),
//   * ExperimentBuilder's option setters (worker_threads(), transport(),
//     ...), which queue a row + value exactly like a flag,
//   * each tool's usage text and the generated tables in docs/CONFIG.md.
//
// Layering is preset < conf file < flags / builder calls, later wins. A
// conf value outside its row's range clamps into it; a flag or builder
// value outside it is an error. A value that does not parse (an unknown
// enum word, a malformed spec or number) is an error in every layer.
// Options are read once, while an experiment is built; nothing here runs
// on the tick path.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/presets.hpp"
#include "core/trace_replay.hpp"
#include "util/config.hpp"

namespace capes::core {

class ExperimentBuilder;
struct OptionSpec;
struct OptionTarget;
class OptionSlot;

/// The command-line tools; an Option's `tools` mask lists the ones whose
/// parser accepts its flag.
enum Tool : unsigned {
  kCapesRun = 1u,
  kCapesAgentd = 2u,
  kCapesReplay = 4u,
  kCapesDaemond = 8u,
};

struct Option {
  enum class Type {
    kInt, kReal, kBool, kText, kList, kEndpoint, kChoice, kSpec
  };
  /// What a flag requires beyond a valid value.
  enum class Need { kOptional, kRequired, kReadableFile };

  const char* key = nullptr;   ///< conf key, or nullptr for a flag-only row
  const char* flag = nullptr;  ///< "--name", or nullptr for a conf-only row
  unsigned tools = 0;          ///< Tool bits of the parsers that accept `flag`
  /// Value placeholder for usage and docs ("N", "FILE"); a choice row's
  /// words, '|'-separated in enumerator order ("sync|sim|tcp"); nullptr
  /// for a switch flag that takes no value.
  const char* arg = nullptr;
  /// Numeric range: conf values clamp into it, flag values outside it are
  /// errors. On a text row, `lo` is the minimum length of a flag value.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  /// Hands the row's field to an OptionSlot (nullptr on spec rows).
  void (*field)(const OptionTarget& target, OptionSlot& slot) = nullptr;
  /// Custom grammar of a preset row whose value is not one field, or
  /// nullptr.
  const OptionSpec* spec = nullptr;
  Need need = Need::kOptional;
  const char* doc = "";

  /// The value type, deduced from the field the row binds.
  Type type() const;
};

/// Every row, in declaration order.
std::span<const Option> options();

/// The row `tool` parses `flag` with ("--threads"), or nullptr.
const Option* find_flag(std::string_view flag, unsigned tool);

/// Preset-row values in the order they were given (flags or builder
/// setters); applied on top of the conf file.
using OptionValues = std::vector<std::pair<const Option*, std::string>>;

/// The parsed command line of one tool. Flags that set preset fields are
/// kept as validated text in `preset_flags`; the rest land here.
struct CommandLine {
  std::vector<std::string> workloads;
  std::int64_t clusters = 1;
  std::string conf;
  std::optional<std::int64_t> train_ticks;
  std::optional<std::int64_t> eval_ticks;
  std::optional<std::uint64_t> seed;
  std::string csv_prefix;
  std::string model_out;
  std::string model_in;
  bool monitor_servers = false;
  bool tune_write_cache = false;
  bool list_workloads = false;
  bool help = false;
  // capes_agentd
  struct Endpoint {
    std::string host;
    std::int64_t port = 0;
  };
  Endpoint daemon;
  std::int64_t connect_timeout_ms = 5000;
  // capes_replay
  std::string capture;
  ReplaySpeed speed = ReplaySpeed::kMax;
  std::string diff;
  // capes_daemond
  std::string host = "127.0.0.1";
  std::int64_t port = 4890;
  std::int64_t accept_timeout_ms = 30000;
  std::int64_t idle_timeout_ms = 30000;

  OptionValues preset_flags;
};

/// A rejected command line: what kind of mistake, which flag, and the
/// offending token, plus a message that names both.
struct CliError {
  enum class Kind { kNone, kUnknownFlag, kBadValue, kMissing, kConflict };
  Kind kind = Kind::kNone;
  std::string flag;
  std::string token;
  std::string message;

  explicit operator bool() const { return kind != Kind::kNone; }
};

/// Parse argv (argv[0] is skipped) for `tool`. Stops at --help. Preset
/// flags are validated against a scratch preset, so a value the builder
/// would reject, or a combination it would refuse (faults over tcp), is
/// reported here against the flag that caused it.
CliError parse_command_line(unsigned tool, int argc, const char* const* argv,
                            CommandLine* out);

/// Front-end wrapper for a tool's main(): nullopt to carry on, otherwise
/// the exit code, after printing the usage (--help: 0) or the error and
/// the usage (2). `about` is the tool's paragraph in the usage text.
std::optional<int> parse_or_exit(unsigned tool, int argc, char** argv,
                                 const char* about, CommandLine* out);

/// The usage text of `tool`: synopsis, `about`, one line per flag.
std::string render_usage(unsigned tool, const char* about);

/// The flags capes_run and capes_agentd share, applied to `builder`:
/// control domains (--workload, --clusters), every preset flag, --seed,
/// --conf, tick counts, the §6 switches and the --csv phase sink.
void apply_command_line(const CommandLine& cl, ExperimentBuilder& builder);

/// Overlay every row `cfg` names onto `preset`. Numbers clamp into the
/// row's range; a value that does not parse fails with *error naming the
/// key and value. Keys outside the table are ignored.
bool apply_conf(const util::Config& cfg, EvaluationPreset* preset,
                std::string* error);

/// Apply builder / flag values to `preset` in order (strict). False with
/// *error naming the flag and value on the first one that fails.
bool apply_option_values(const OptionValues& values, EvaluationPreset* preset,
                         std::string* error);

/// A combination of settings no layer may build: nullptr when fine.
const char* preset_conflict(const EvaluationPreset& preset);

/// Every keyed row's value (unset pinned seeds are omitted), as a conf
/// file that apply_conf reads back to the same preset fields.
util::Config emit_conf(const EvaluationPreset& preset);

/// The generated block of docs/CONFIG.md: each tool's flag table and the
/// conf-key tables, defaults rendered from fast_preset() and CommandLine{}.
std::string render_option_tables();

}  // namespace capes::core
