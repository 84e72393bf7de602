#include "core/options.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <span>
#include <type_traits>

#include "bus/transport.hpp"
#include "core/experiment.hpp"
#include "sim/fault.hpp"
#include "util/parse.hpp"

namespace capes::core {

/// What a row's field accessor may reach: a null member means "not this
/// layer" (the conf overlay and builder calls pass no CommandLine).
struct OptionTarget {
  EvaluationPreset* preset = nullptr;
  CommandLine* cli = nullptr;
};

/// Grammar of a preset row whose value is not a single field (transport
/// and fault specs, the shard plan, `auto|N` shards, pinned seeds).
struct OptionSpec {
  /// Parse `text` into the preset. `strict` (flags, builder calls)
  /// rejects what the conf overlay would clamp.
  bool (*parse)(std::string_view text, bool strict, EvaluationPreset& preset,
                std::string* error);
  /// The current value as text; nullopt when unset (not emitted).
  std::optional<std::string> (*print)(const EvaluationPreset& preset);
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

/// The shortest decimal that reads back to the same `F`, so emitted
/// conf files round-trip and docs show 0.95, not 0.94999998807907104.
/// Whole numbers print without an exponent (200, not 2e+02).
template <class F>
std::string format_real(F v) {
  char buf[32];
  if (v < F(1e15) && v > F(-1e15) &&
      v == static_cast<F>(static_cast<std::int64_t>(v))) {
    std::snprintf(buf, sizeof buf, "%.0f", static_cast<double>(v));
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, static_cast<double>(v));
    if (static_cast<F>(std::strtod(buf, nullptr)) == v) break;
  }
  return buf;
}

/// ">= 1" or "in [0, 65535]".
std::string range_text(const Option& row) {
  if (row.hi == kInf) return ">= " + format_real(row.lo);
  return "in [" + format_real(row.lo) + ", " + format_real(row.hi) + "]";
}

/// The `index`-th '|'-separated word of a choice row's arg.
std::string_view choice_word(const Option& row, std::size_t index) {
  std::string_view words = row.arg;
  for (; index > 0; --index) words.remove_prefix(words.find('|') + 1);
  return words.substr(0, words.find('|'));
}

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

}  // namespace

/// Hands one field to the table's generic grammar: reads it as text
/// (`text` null) or parses text into it, clamping (conf) or rejecting
/// (strict) out-of-range numbers.
class OptionSlot {
 public:
  OptionSlot(const Option& row, const std::string_view* text, bool strict)
      : row_(row), text_(text), strict_(strict) {}

  Option::Type type = Option::Type::kSpec;
  bool visited = false;
  std::optional<std::string> value;  ///< read result; nullopt = unset
  bool ok = true;
  std::string error;

  template <class T>
  void operator()(T& field) {
    visited = true;
    if constexpr (IsOptional<T>::value) {
      typename T::value_type inner = field.value_or(typename T::value_type{});
      (*this)(inner);
      if (text_ == nullptr && !field) value.reset();
      if (text_ != nullptr && ok) field = inner;
    } else {
      type = type_of<T>();
      if (text_ == nullptr) {
        value = format(field);
      } else {
        ok = parse(*text_, &field);
      }
    }
  }

 private:
  template <class T>
  static constexpr Option::Type type_of() {
    using Type = Option::Type;
    if constexpr (std::is_same_v<T, bool>) return Type::kBool;
    else if constexpr (std::is_enum_v<T>) return Type::kChoice;
    else if constexpr (std::is_integral_v<T>) return Type::kInt;
    else if constexpr (std::is_floating_point_v<T>) return Type::kReal;
    else if constexpr (std::is_same_v<T, std::string>) return Type::kText;
    else if constexpr (std::is_same_v<T, CommandLine::Endpoint>) return Type::kEndpoint;
    else return Type::kList;
  }

  template <class T>
  std::optional<std::string> format(const T& field) const {
    if constexpr (std::is_same_v<T, bool>) {
      return field ? "true" : "false";
    } else if constexpr (std::is_enum_v<T>) {
      return std::string(choice_word(row_, static_cast<std::size_t>(field)));
    } else if constexpr (std::is_integral_v<T>) {
      return std::to_string(field);
    } else if constexpr (std::is_floating_point_v<T>) {
      return format_real(field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return field;
    } else if constexpr (std::is_same_v<T, CommandLine::Endpoint>) {
      if (field.host.empty()) return std::nullopt;
      return field.host + ":" + std::to_string(field.port);
    } else {
      std::string joined;
      for (const auto& item : field) joined += (joined.empty() ? "" : ",") + item;
      return joined;
    }
  }

  /// Range policy for a parsed number: clamp (conf) or reject (strict).
  template <class N>
  bool fit(N* v) {
    const double d = static_cast<double>(*v);
    if (d >= row_.lo && d <= row_.hi) return true;
    if (strict_) return fail(&error, "must be " + range_text(row_));
    *v = static_cast<N>(d < row_.lo ? row_.lo : row_.hi);
    return true;
  }

  template <class T>
  bool parse(std::string_view text, T* field) {
    if constexpr (std::is_same_v<T, bool>) {
      std::string word(text);
      for (char& c : word) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (word == "true" || word == "1" || word == "yes" || word == "on") {
        *field = true;
      } else if (word == "false" || word == "0" || word == "no" || word == "off") {
        *field = false;
      } else {
        return fail(&error, "expected true or false");
      }
      return true;
    } else if constexpr (std::is_enum_v<T>) {
      std::string_view words = row_.arg;
      for (std::size_t i = 0;; ++i) {
        const std::size_t bar = words.find('|');
        if (words.substr(0, bar) == text) {
          *field = static_cast<T>(i);
          return true;
        }
        if (bar == std::string_view::npos) break;
        words.remove_prefix(bar + 1);
      }
      return fail(&error, std::string("expected one of ") + row_.arg);
    } else if constexpr (std::is_integral_v<T>) {
      std::int64_t v = 0;
      std::uint64_t u = 0;
      if (util::parse_i64(text, &v)) {
        if (!fit(&v)) return false;
        *field = static_cast<T>(v);
      } else if (std::is_unsigned_v<T> && util::parse_u64(text, &u)) {
        if (!fit(&u)) return false;  // above INT64_MAX
        *field = static_cast<T>(u);
      } else {
        return fail(&error, "expected an integer");
      }
      return true;
    } else if constexpr (std::is_floating_point_v<T>) {
      double v = 0.0;
      if (!util::parse_double(text, &v)) return fail(&error, "expected a number");
      if (!fit(&v)) return false;
      *field = static_cast<T>(v);
      return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      *field = std::string(text);
      return true;
    } else if constexpr (std::is_same_v<T, CommandLine::Endpoint>) {
      const std::size_t colon = text.rfind(':');
      std::int64_t port = 0;
      if (colon == std::string_view::npos || colon == 0 ||
          !util::parse_i64(text.substr(colon + 1), &port)) {
        return fail(&error, "expected HOST:PORT");
      }
      if (!fit(&port)) return fail(&error, "port " + error);
      *field = {std::string(text.substr(0, colon)), port};
      return true;
    } else {
      field->emplace_back(text);
      return true;
    }
  }

  const Option& row_;
  const std::string_view* text_;
  bool strict_;
};

namespace {

// --- custom grammars --------------------------------------------------------

template <class Opts>
bool parse_pinned_seed(std::string_view text, bool strict, Opts& o,
                       std::string* error) {
  std::int64_t v = 0;
  std::uint64_t u = 0;
  if (util::parse_i64(text, &v)) {
    if (v < 0 && strict) return fail(error, "must be >= 0");
    u = v < 0 ? 0 : static_cast<std::uint64_t>(v);
  } else if (!util::parse_u64(text, &u)) {
    return fail(error, "expected an unsigned integer");
  }
  o.seed = u;
  o.seed_explicit = true;
  return true;
}

template <class Opts>
std::optional<std::string> print_pinned_seed(const Opts& o) {
  if (!o.seed_explicit) return std::nullopt;
  return std::to_string(o.seed);
}

constexpr OptionSpec kTransportSpec{
    [](std::string_view text, bool, EvaluationPreset& p, std::string* error) {
      return bus::parse_transport_spec(text, &p.capes.transport, error);
    },
    [](const EvaluationPreset& p) -> std::optional<std::string> {
      return bus::transport_spec_string(p.capes.transport);
    }};

constexpr OptionSpec kFaultSpec{
    [](std::string_view text, bool, EvaluationPreset& p, std::string* error) {
      return sim::parse_fault_spec(text, &p.capes.faults, error);
    },
    [](const EvaluationPreset& p) -> std::optional<std::string> {
      return sim::fault_spec_string(p.capes.faults);
    }};

constexpr OptionSpec kShardPlanSpec{
    [](std::string_view text, bool, EvaluationPreset& p, std::string* error) {
      return sim::parse_shard_plan_spec(std::string(text), &p.capes.shard_plan,
                                        error);
    },
    [](const EvaluationPreset& p) -> std::optional<std::string> {
      return sim::shard_plan_name(p.capes.shard_plan);
    }};

// "auto" (or a conf 0) is one event queue per control domain; conf
// negatives clamp to the serial loop, flags below 1 are errors.
constexpr OptionSpec kShardsSpec{
    [](std::string_view text, bool strict, EvaluationPreset& p,
       std::string* error) {
      std::int64_t n = 0;
      if (text != "auto" && !util::parse_i64(text, &n)) {
        return fail(error, "expected auto or an integer");
      }
      if (strict && text != "auto" && n < 1) {
        return fail(error, "must be >= 1 or auto");
      }
      p.capes.sim_shards = n < 0 ? 1 : static_cast<std::size_t>(n);
      return true;
    },
    [](const EvaluationPreset& p) -> std::optional<std::string> {
      if (p.capes.sim_shards == 0) return "auto";
      return std::to_string(p.capes.sim_shards);
    }};

constexpr OptionSpec kTransportSeedSpec{
    [](std::string_view text, bool strict, EvaluationPreset& p,
       std::string* error) {
      return parse_pinned_seed(text, strict, p.capes.transport, error);
    },
    [](const EvaluationPreset& p) {
      return print_pinned_seed(p.capes.transport);
    }};

constexpr OptionSpec kFaultSeedSpec{
    [](std::string_view text, bool strict, EvaluationPreset& p,
       std::string* error) {
      return parse_pinned_seed(text, strict, p.capes.faults, error);
    },
    [](const EvaluationPreset& p) {
      return print_pinned_seed(p.capes.faults);
    }};

// --- the table --------------------------------------------------------------

// A row's field accessor does nothing when the target lacks its side,
// which is how sets_preset() tells the two kinds apart.
#define PRESET(path) \
  [](const OptionTarget& t, OptionSlot& s) { if (t.preset) s(t.preset->path); }
#define TOOL(member) \
  [](const OptionTarget& t, OptionSlot& s) { if (t.cli) s(t.cli->member); }

constexpr unsigned kRunAgentd = kCapesRun | kCapesAgentd;
constexpr unsigned kAllTools =
    kCapesRun | kCapesAgentd | kCapesReplay | kCapesDaemond;

constexpr Option kOptions[] = {
    // --- flags that steer a tool -------------------------------------------
    {.flag = "--workload", .tools = kRunAgentd, .arg = "SPEC",
     .field = TOOL(workloads),
     .doc = "workload spec for one control domain, repeatable, all tuned by "
            "one brain (default: one random:0.1 domain; see --list-workloads)"},
    {.flag = "--clusters", .tools = kRunAgentd, .arg = "N", .lo = 1,
     .field = TOOL(clusters),
     .doc = "replicate a single --workload spec across N clusters (not with "
            "repeated --workload)"},
    {.flag = "--conf", .tools = kRunAgentd | kCapesReplay, .arg = "FILE",
     .field = TOOL(conf),
     .doc = "conf file of `key = value` overrides (see Conf keys); "
            "capes_replay applies it onto the traced configuration"},
    {.flag = "--diff", .tools = kCapesReplay, .arg = "FILE",
     .field = TOOL(diff),
     .doc = "replay again under FILE's keys and print both runs' per-phase "
            "outcomes side by side"},
    {.flag = "--train-ticks", .tools = kRunAgentd, .arg = "N", .lo = 0,
     .field = TOOL(train_ticks),
     .doc = "training-phase sampling ticks (unset: the preset's)"},
    {.flag = "--eval-ticks", .tools = kRunAgentd, .arg = "N", .lo = 0,
     .field = TOOL(eval_ticks),
     .doc = "baseline and tuned measurement ticks (unset: the preset's)"},
    {.flag = "--seed", .tools = kRunAgentd, .arg = "N", .lo = 0,
     .field = TOOL(seed),
     .doc = "experiment seed: re-derives the cluster, DQN and exploration "
            "seeds and every unpinned transport/fault seed; wins over conf"},
    {.flag = "--csv", .tools = kRunAgentd, .arg = "PREFIX",
     .field = TOOL(csv_prefix),
     .doc = "write PREFIX_<phase>.csv per phase (tick, throughput, latency, "
            "reward)"},
    {.flag = "--model", .tools = kCapesRun, .arg = "FILE",
     .field = TOOL(model_out),
     .doc = "save the trained DQN checkpoint after the run"},
    {.flag = "--load-model", .tools = kCapesRun, .arg = "FILE",
     .field = TOOL(model_in),
     .doc = "load a DQN checkpoint before the run"},
    {.flag = "--monitor-servers", .tools = kCapesRun,
     .field = TOOL(monitor_servers),
     .doc = "§6 extension: monitor OSTs as well as clients"},
    {.flag = "--tune-write-cache", .tools = kCapesRun,
     .field = TOOL(tune_write_cache),
     .doc = "§6 extension: add the per-client write cache to the action space"},
    {.flag = "--list-workloads", .tools = kCapesRun,
     .field = TOOL(list_workloads),
     .doc = "print every registered workload with its spec syntax and exit"},
    {.flag = "--daemon", .tools = kCapesAgentd, .arg = "HOST:PORT", .lo = 1,
     .hi = 65535, .field = TOOL(daemon), .need = Option::Need::kRequired,
     .doc = "the capes_daemond to connect to"},
    {.flag = "--connect-timeout-ms", .tools = kCapesAgentd, .arg = "N", .lo = 0,
     .field = TOOL(connect_timeout_ms),
     .doc = "connect-retry budget with capped backoff, so either process may "
            "start first"},
    {.flag = "--capture", .tools = kCapesReplay, .arg = "FILE",
     .field = TOOL(capture), .need = Option::Need::kReadableFile,
     .doc = "the flight recording to replay (capes_run --capture=)"},
    {.flag = "--speed", .tools = kCapesReplay, .arg = "realtime|fast|max",
     .field = TOOL(speed),
     .doc = "pacing: max reproduces the live fingerprint, realtime waits one "
            "sampling tick per traced tick, fast runs 20x realtime"},
    {.flag = "--host", .tools = kCapesDaemond, .arg = "ADDR",
     .field = TOOL(host),
     .doc = "listen address (0.0.0.0 accepts off-host agents)"},
    {.flag = "--port", .tools = kCapesDaemond, .arg = "N", .lo = 0,
     .hi = 65535, .field = TOOL(port),
     .doc = "listen port; 0 lets the kernel pick one, printed on the "
            "'listening on' line before accept"},
    {.flag = "--accept-timeout-ms", .tools = kCapesDaemond, .arg = "N",
     .field = TOOL(accept_timeout_ms),
     .doc = "how long to wait for the agent to connect (-1 = forever)"},
    {.flag = "--idle-timeout-ms", .tools = kCapesDaemond, .arg = "N", .lo = 0,
     .field = TOOL(idle_timeout_ms),
     .doc = "declare the link dead after this long without a frame or "
            "heartbeat (0 = never)"},

    // --- flags with a grammar of their own ---------------------------------
    {.flag = "--transport", .tools = kCapesRun, .arg = "SPEC",
     .spec = &kTransportSpec,
     .doc = "control network: sync, sim[:latency_ticks=N,jitter=X,drop=P,"
            "seed=N] or tcp:host=H,port=N[,connect_timeout_ms=N,io_threads=N]"},
    {.flag = "--faults", .tools = kCapesRun, .arg = "SPEC",
     .spec = &kFaultSpec,
     .doc = "fault injection: off or faults[:ost_crash=P,restart_ticks=N,"
            "straggler=P,slow_factor=X,straggler_ticks=N,partition=P,"
            "partition_ticks=N,seed=N]"},

    // --- capes.* ------------------------------------------------------------
    {.key = "capes.sampling_tick_s", .field = PRESET(capes.sampling_tick_s),
     .doc = "sampling tick length in simulated seconds (Table 1)"},
    {.key = "capes.reward_scale_mbs", .field = PRESET(capes.reward_scale_mbs),
     .doc = "objective normalization: MB/s mapped to O(1) rewards"},
    {.key = "capes.replay_db_dir", .field = PRESET(capes.replay_db_dir),
     .doc = "durable replay DB directory; empty = memory only"},
    {.key = "capes.worker_threads", .flag = "--threads", .tools = kRunAgentd,
     .arg = "N", .lo = 0, .field = PRESET(capes.worker_threads),
     .doc = "worker threads for the per-tick hot path and the simulator "
            "shards; 0 = single-threaded (same results at any count)"},
    {.key = "capes.sim.shards", .flag = "--sim-shards", .tools = kRunAgentd,
     .arg = "auto|N", .spec = &kShardsSpec,
     .doc = "simulator event queues: auto (conf: or 0) = one per control "
            "domain, N caps the count, 1 = the serial loop"},
    {.key = "capes.sim.shard_plan", .flag = "--shard-plan", .tools = kCapesRun,
     .arg = "static|rate", .spec = &kShardPlanSpec,
     .doc = "domain-to-shard placement: static round-robin, or rate re-packs "
            "by observed event counts at each phase boundary"},
    {.key = "capes.sim.faults.ost_crash", .lo = 0, .hi = 0.999,
     .field = PRESET(capes.faults.ost_crash),
     .doc = "per-server per-tick OST crash probability"},
    {.key = "capes.sim.faults.restart_ticks", .lo = 1,
     .field = PRESET(capes.faults.restart_ticks),
     .doc = "ticks a crashed OST stays down before its restart"},
    {.key = "capes.sim.faults.straggler", .lo = 0, .hi = 0.999,
     .field = PRESET(capes.faults.straggler),
     .doc = "per-disk per-tick straggler probability"},
    {.key = "capes.sim.faults.slow_factor", .lo = 1,
     .field = PRESET(capes.faults.slow_factor),
     .doc = "disk service-time multiplier while a disk straggles"},
    {.key = "capes.sim.faults.straggler_ticks", .lo = 1,
     .field = PRESET(capes.faults.straggler_ticks),
     .doc = "ticks a straggler window lasts"},
    {.key = "capes.sim.faults.partition", .lo = 0, .hi = 0.999,
     .field = PRESET(capes.faults.partition),
     .doc = "per-domain per-tick control-network partition probability"},
    {.key = "capes.sim.faults.partition_ticks", .lo = 1,
     .field = PRESET(capes.faults.partition_ticks),
     .doc = "ticks a partition window lasts"},
    {.key = "capes.sim.faults.seed", .arg = "N", .spec = &kFaultSeedSpec,
     .doc = "pins the fault realization; unset = derived from the engine seed"},
    {.key = "capes.learner.mode", .flag = "--learner", .tools = kCapesRun,
     .arg = "sync|async", .field = PRESET(capes.engine.learner_mode),
     .doc = "where DQN training runs: inline, or on a learner thread that "
            "overlaps the next tick (same results)"},
    {.key = "capes.learner.checkpoint_ticks", .lo = 0,
     .field = PRESET(capes.engine.checkpoint_ticks),
     .doc = "durable learner checkpoint every N training ticks into the "
            "replay DB directory above; 0 = off"},
    {.key = "capes.capture.path", .flag = "--capture", .tools = kRunAgentd,
     .arg = "FILE", .lo = 1, .field = PRESET(capes.capture_path),
     .doc = "flight-record every daemon-boundary message for capes_replay "
            "(unset or empty = off)"},
    {.key = "capes.capture.ring", .lo = 2, .field = PRESET(capes.capture_ring),
     .doc = "capture-ring slots between the control and writer threads "
            "(rounded up to a power of two)"},
    {.key = "capes.transport", .arg = "sync|sim|tcp",
     .field = PRESET(capes.transport.kind),
     .doc = "control-network scheme (the keys below set its options)"},
    {.key = "capes.transport.latency_ticks", .lo = 0,
     .field = PRESET(capes.transport.latency_ticks),
     .doc = "sim transport: base delivery delay in ticks"},
    {.key = "capes.transport.jitter", .lo = 0,
     .field = PRESET(capes.transport.jitter),
     .doc = "sim transport: up to this many extra ticks of per-message jitter"},
    {.key = "capes.transport.drop", .lo = 0, .hi = 0.999,
     .field = PRESET(capes.transport.drop),
     .doc = "sim transport: per-message drop probability"},
    {.key = "capes.transport.seed", .arg = "N", .spec = &kTransportSeedSpec,
     .doc = "sim transport: pins the network realization; unset = derived "
            "from the engine seed"},
    {.key = "capes.transport.tcp.host",
     .field = PRESET(capes.transport.tcp_host),
     .doc = "tcp transport: the capes_daemond host"},
    {.key = "capes.transport.tcp.port", .lo = 0, .hi = 65535,
     .field = PRESET(capes.transport.tcp_port),
     .doc = "tcp transport: the capes_daemond port"},
    {.key = "capes.transport.tcp.connect_timeout_ms", .lo = 0,
     .field = PRESET(capes.transport.connect_timeout_ms),
     .doc = "tcp transport: connect-retry budget (50 ms backoff doubling to "
            "1 s)"},
    {.key = "capes.transport.tcp.io_threads", .lo = 1, .hi = 64,
     .field = PRESET(capes.transport.io_threads),
     .doc = "tcp transport: I/O threads per endpoint"},

    // --- drl.* --------------------------------------------------------------
    {.key = "drl.minibatch_size", .lo = 1,
     .field = PRESET(capes.engine.minibatch_size),
     .doc = "minibatch size per training step (Table 1)"},
    {.key = "drl.train_steps_per_tick", .lo = 0,
     .field = PRESET(capes.engine.train_steps_per_tick),
     .doc = "SGD steps per training tick"},
    {.key = "drl.eval_epsilon", .field = PRESET(capes.engine.eval_epsilon),
     .doc = "exploration while tuning with training frozen"},
    {.key = "drl.gamma", .field = PRESET(capes.engine.dqn.gamma),
     .doc = "discount rate (Table 1)"},
    {.key = "drl.learning_rate",
     .field = PRESET(capes.engine.dqn.learning_rate),
     .doc = "Adam learning rate (Table 1)"},
    {.key = "drl.target_update_alpha",
     .field = PRESET(capes.engine.dqn.target_update_alpha),
     .doc = "target-network soft-update rate (Table 1)"},
    {.key = "drl.num_hidden_layers", .lo = 0,
     .field = PRESET(capes.engine.dqn.num_hidden_layers),
     .doc = "MLP depth"},
    {.key = "drl.hidden_size", .lo = 0,
     .field = PRESET(capes.engine.dqn.hidden_size),
     .doc = "MLP width; 0 = the observation size (Table 1)"},
    {.key = "drl.use_target_network",
     .field = PRESET(capes.engine.dqn.use_target_network),
     .doc = "ablation switch for the target network"},
    {.key = "drl.epsilon_initial",
     .field = PRESET(capes.engine.epsilon.initial),
     .doc = "epsilon at tick 0 (Table 1)"},
    {.key = "drl.epsilon_final",
     .field = PRESET(capes.engine.epsilon.final_value),
     .doc = "epsilon floor (Table 1)"},
    {.key = "drl.epsilon_anneal_ticks", .lo = 0,
     .field = PRESET(capes.engine.epsilon.anneal_ticks),
     .doc = "linear anneal length in training ticks"},
    {.key = "drl.epsilon_bump",
     .field = PRESET(capes.engine.epsilon.bump_value),
     .doc = "§3.6 workload-change epsilon bump"},

    // --- replay.* -----------------------------------------------------------
    {.key = "replay.ticks_per_observation", .lo = 1,
     .field = PRESET(capes.replay.ticks_per_observation),
     .doc = "sampling ticks per stacked observation (Table 1)"},
    {.key = "replay.missing_tolerance",
     .field = PRESET(capes.replay.missing_tolerance),
     .doc = "fraction of missing PI entries an observation tolerates (Table 1)"},
    {.key = "replay.max_ticks_retained", .lo = 0,
     .field = PRESET(capes.replay.max_ticks_retained),
     .doc = "replay window in ticks; 0 = unlimited"},

    // --- lustre.* -----------------------------------------------------------
    {.key = "lustre.num_clients", .lo = 1, .field = PRESET(cluster.num_clients),
     .doc = "client nodes (§4.2 testbed: 5)"},
    {.key = "lustre.num_servers", .lo = 1, .field = PRESET(cluster.num_servers),
     .doc = "OST nodes (§4.2 testbed: 4)"},
    {.key = "lustre.default_cwnd", .field = PRESET(cluster.default_cwnd),
     .doc = "initial max_rpcs_in_flight"},
    {.key = "lustre.cwnd_min", .field = PRESET(cluster.cwnd_min),
     .doc = "congestion-window tuning range: low end"},
    {.key = "lustre.cwnd_max", .field = PRESET(cluster.cwnd_max),
     .doc = "congestion-window tuning range: high end"},
    {.key = "lustre.cwnd_step", .field = PRESET(cluster.cwnd_step),
     .doc = "congestion-window action step"},
    {.key = "lustre.default_rate_limit",
     .field = PRESET(cluster.default_rate_limit),
     .doc = "initial per-client I/O rate limit (requests/s)"},
    {.key = "lustre.rate_limit_min", .field = PRESET(cluster.rate_limit_min),
     .doc = "rate-limit tuning range: low end"},
    {.key = "lustre.rate_limit_max", .field = PRESET(cluster.rate_limit_max),
     .doc = "rate-limit tuning range: high end"},
    {.key = "lustre.rate_limit_step", .field = PRESET(cluster.rate_limit_step),
     .doc = "rate-limit action step"},
    {.key = "lustre.max_dirty_bytes", .lo = 1 << 20,
     .field = PRESET(cluster.max_dirty_bytes),
     .doc = "per-client write cache in bytes (the actuator's 1 MiB floor)"},
    {.key = "lustre.rpc_timeout_us", .lo = 1, .field = PRESET(cluster.rpc_timeout),
     .doc = "RPC timeout before a retransmit"},
    {.key = "lustre.fragmentation", .field = PRESET(cluster.fragmentation),
     .doc = "extra positioning work on fragmented objects (0..1)"},
    {.key = "lustre.disk_fullness", .field = PRESET(cluster.disk_fullness),
     .doc = "positioning penalty multiplier (0..1)"},
    {.key = "lustre.seed", .lo = 0, .field = PRESET(cluster.seed),
     .doc = "cluster RNG seed (each domain derives its own from it)"},

    // --- disk.* / network.* -------------------------------------------------
    {.key = "disk.seq_read_mbs", .field = PRESET(cluster.disk.seq_read_mbs),
     .doc = "sequential read bandwidth (§4.2 disks)"},
    {.key = "disk.seq_write_mbs", .field = PRESET(cluster.disk.seq_write_mbs),
     .doc = "sequential write bandwidth (§4.2 disks)"},
    {.key = "disk.read_positioning_us", .lo = 0,
     .field = PRESET(cluster.disk.read_positioning_us),
     .doc = "average read seek + rotational latency"},
    {.key = "disk.write_positioning_us", .lo = 0,
     .field = PRESET(cluster.disk.write_positioning_us),
     .doc = "average write seek + rotational latency"},
    {.key = "disk.write_queue_gain",
     .field = PRESET(cluster.disk.write_queue_gain),
     .doc = "write service-time gain vs queue depth"},
    {.key = "disk.write_queue_scale",
     .field = PRESET(cluster.disk.write_queue_scale),
     .doc = "write queue-depth scale"},
    {.key = "disk.read_queue_gain",
     .field = PRESET(cluster.disk.read_queue_gain),
     .doc = "read service-time gain vs queue depth"},
    {.key = "disk.read_queue_scale",
     .field = PRESET(cluster.disk.read_queue_scale),
     .doc = "read queue-depth scale"},
    {.key = "disk.service_noise", .field = PRESET(cluster.disk.service_noise),
     .doc = "multiplicative service-time noise"},
    {.key = "network.link_bandwidth_mbs",
     .field = PRESET(cluster.network.link_bandwidth_mbs),
     .doc = "per-NIC bandwidth (gigabit ethernet)"},
    {.key = "network.fabric_bandwidth_mbs",
     .field = PRESET(cluster.network.fabric_bandwidth_mbs),
     .doc = "aggregate switch bandwidth"},
    {.key = "network.base_latency_us", .lo = 0,
     .field = PRESET(cluster.network.base_latency),
     .doc = "one-way propagation + stack latency"},
    {.key = "network.jitter_fraction",
     .field = PRESET(cluster.network.jitter_fraction),
     .doc = "± uniform jitter on latency"},

    {.flag = "--help", .tools = kAllTools, .field = TOOL(help),
     .doc = "print this usage and exit"},
};

#undef PRESET
#undef TOOL

/// Parse `text` into the row's field or spec. `strict` rejects values the
/// conf overlay would clamp. False with a detail message in *error.
bool apply_value(const Option& row, std::string_view text, bool strict,
                 OptionTarget target, std::string* error) {
  if (row.spec != nullptr) {
    return row.spec->parse(text, strict, *target.preset, error);
  }
  OptionSlot slot(row, &text, strict);
  row.field(target, slot);
  if (!slot.ok) *error = slot.error;
  return slot.ok;
}

/// The row's current value as text; nullopt when unset.
std::optional<std::string> read_value(const Option& row, OptionTarget target) {
  if (row.spec != nullptr) return row.spec->print(*target.preset);
  OptionSlot slot(row, nullptr, false);
  row.field(target, slot);
  return slot.value;
}

/// Whether the row's value lives in the EvaluationPreset (applied by
/// ExperimentBuilder) rather than in the CommandLine.
bool sets_preset(const Option& row) {
  if (row.spec != nullptr) return true;
  EvaluationPreset preset;
  OptionSlot slot(row, nullptr, false);
  row.field({&preset, nullptr}, slot);
  return slot.visited;
}

std::string name_of(const Option& row) {
  return row.flag != nullptr ? row.flag : row.key;
}

const char* tool_name(unsigned tool) {
  switch (tool) {
    case kCapesAgentd: return "capes_agentd";
    case kCapesReplay: return "capes_replay";
    case kCapesDaemond: return "capes_daemond";
    default: return "capes_run";
  }
}

std::string flag_syntax(const Option& row) {
  return row.arg != nullptr ? std::string(row.flag) + "=" + row.arg : row.flag;
}

}  // namespace

Option::Type Option::type() const {
  if (spec != nullptr) return Type::kSpec;
  EvaluationPreset preset;
  CommandLine cli;
  OptionSlot slot(*this, nullptr, false);
  field({&preset, &cli}, slot);
  return slot.type;
}


std::span<const Option> options() { return kOptions; }

const Option* find_flag(std::string_view flag, unsigned tool) {
  for (const Option& row : kOptions) {
    if (row.flag != nullptr && (row.tools & tool) != 0 && flag == row.flag) {
      return &row;
    }
  }
  return nullptr;
}

bool apply_conf(const util::Config& cfg, EvaluationPreset* preset,
                std::string* error) {
  for (const Option& row : kOptions) {
    if (row.key == nullptr) continue;
    const auto text = cfg.get(row.key);
    if (!text) continue;
    std::string detail;
    if (!apply_value(row, *text, /*strict=*/false, {preset, nullptr}, &detail)) {
      return fail(error, std::string(row.key) + " = '" + *text + "': " + detail);
    }
  }
  return true;
}

bool apply_option_values(const OptionValues& values, EvaluationPreset* preset,
                         std::string* error) {
  for (const auto& [row, text] : values) {
    std::string detail;
    if (!apply_value(*row, text, /*strict=*/true, {preset, nullptr}, &detail)) {
      return fail(error, name_of(*row) + "=" + text + ": " + detail);
    }
  }
  return true;
}

const char* preset_conflict(const EvaluationPreset& preset) {
  // Fault fates are pure functions of the simulated tick clock; a real
  // control network has no such clock to share.
  if (preset.capes.faults.enabled() &&
      preset.capes.transport.kind == bus::TransportKind::kTcp) {
    return "fault injection requires a simulated control network (sync or "
           "sim transport); tcp cannot replay deterministic fault fates";
  }
  return nullptr;
}

util::Config emit_conf(const EvaluationPreset& preset) {
  EvaluationPreset copy = preset;
  util::Config cfg;
  for (const Option& row : kOptions) {
    if (row.key == nullptr) continue;
    const auto text = read_value(row, {&copy, nullptr});
    if (text) cfg.set(row.key, *text);
  }
  return cfg;
}

CliError parse_command_line(unsigned tool, int argc, const char* const* argv,
                            CommandLine* out) {
  using Kind = CliError::Kind;
  EvaluationPreset scratch;  // validates preset flags the way build() will
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const Option* row = find_flag(flag, tool);
    if (row == nullptr) {
      return {Kind::kUnknownFlag, flag, arg, "unknown argument: " + arg};
    }
    if ((row->arg == nullptr) != (eq == std::string::npos)) {
      return {Kind::kBadValue, flag, arg,
              row->arg == nullptr ? arg + ": " + flag + " takes no value"
                                  : arg + ": expected " + flag_syntax(*row)};
    }
    const std::string value =
        eq == std::string::npos ? "true" : arg.substr(eq + 1);
    if (row->type() == Option::Type::kText &&
        static_cast<double>(value.size()) < row->lo) {
      return {Kind::kBadValue, flag, value,
              flag + " needs a value (" + flag_syntax(*row) + ")"};
    }
    const bool preset_row = sets_preset(*row);
    std::string detail;
    if (!apply_value(*row, value, /*strict=*/true,
                     preset_row ? OptionTarget{&scratch, nullptr}
                                : OptionTarget{nullptr, out},
                     &detail)) {
      return {Kind::kBadValue, flag, value,
              "invalid value for " + flag + ": '" + value + "': " + detail};
    }
    if (preset_row) {
      out->preset_flags.emplace_back(row, value);
      if (const char* conflict = preset_conflict(scratch)) {
        return {Kind::kConflict, flag, value, arg + ": " + conflict};
      }
    }
    if (out->help) return {};
  }
  for (const Option& row : kOptions) {
    if (row.need == Option::Need::kOptional || (row.tools & tool) == 0) continue;
    const auto value = read_value(row, {nullptr, out});
    if (!value || value->empty()) {
      return {Kind::kMissing, row.flag, "", flag_syntax(row) + " is required"};
    }
    if (row.need == Option::Need::kReadableFile && !std::ifstream(*value)) {
      return {Kind::kBadValue, row.flag, *value,
              std::string(row.flag) + "=" + *value + ": cannot open it"};
    }
  }
  if (out->clusters > 1 && out->workloads.size() > 1) {
    const std::string clusters = std::to_string(out->clusters);
    return {Kind::kConflict, "--clusters", clusters,
            "--clusters=" + clusters +
                " replicates a single --workload spec; pass either "
                "--clusters=N or repeated --workload flags, not both"};
  }
  return {};
}

std::optional<int> parse_or_exit(unsigned tool, int argc, char** argv,
                                 const char* about, CommandLine* out) {
  const CliError error = parse_command_line(tool, argc, argv, out);
  if (error) std::fprintf(stderr, "%s\n", error.message.c_str());
  if (!error && !out->help) return std::nullopt;
  std::fputs(render_usage(tool, about).c_str(), stdout);
  return error ? 2 : 0;
}

std::string render_usage(unsigned tool, const char* about) {
  constexpr std::size_t kDocColumn = 26;
  constexpr std::size_t kWidth = 79;
  EvaluationPreset preset = fast_preset();
  CommandLine cli;
  std::string text = std::string("usage: ") + tool_name(tool) +
                     " [FLAG]...\n\n" + about + "\n";
  for (const Option& row : kOptions) {
    if (row.flag == nullptr || (row.tools & tool) == 0) continue;
    std::string line = "  " + flag_syntax(row);
    if (row.type() == Option::Type::kList) line += " ...";
    std::string full_doc = row.doc;
    const auto value = read_value(row, {&preset, &cli});
    if (row.need != Option::Need::kOptional) full_doc += " (required)";
    if (row.arg != nullptr && value && !value->empty()) {
      full_doc += " (default " + *value + ")";
    }
    // The doc line, word-wrapped into the right-hand column (starting on
    // the next line when the flag itself is too wide).
    std::string_view doc = full_doc;
    while (!doc.empty()) {
      if (line.size() >= kDocColumn) {
        text += line + "\n";
        line.clear();
      }
      line.resize(kDocColumn, ' ');
      std::size_t take = doc.size();
      if (kDocColumn + take > kWidth) {
        // Break at the last space, or after the last comma of a spec.
        take = doc.find_last_of(" ,", kWidth - kDocColumn - 1);
        if (take == std::string_view::npos) take = doc.size();
        if (take < doc.size() && doc[take] == ',') ++take;
      }
      text += line.append(doc.substr(0, take)) + "\n";
      line.clear();
      doc.remove_prefix(take);
      while (!doc.empty() && doc.front() == ' ') doc.remove_prefix(1);
    }
  }
  return text;
}

void apply_command_line(const CommandLine& cl, ExperimentBuilder& builder) {
  std::vector<std::string> specs =
      cl.workloads.empty() ? std::vector<std::string>{"random:0.1"}
                           : cl.workloads;
  if (cl.clusters > 1) {
    const std::string replicated = specs[0];
    specs.assign(static_cast<std::size_t>(cl.clusters), replicated);
  }
  builder.workload(specs[0]);
  for (std::size_t i = 1; i < specs.size(); ++i) builder.add_cluster(specs[i]);
  builder.option_values_.insert(builder.option_values_.end(),
                                cl.preset_flags.begin(), cl.preset_flags.end());
  if (cl.seed) builder.seed(*cl.seed);
  if (!cl.conf.empty()) builder.config_file(cl.conf);
  if (cl.train_ticks) builder.train_ticks(*cl.train_ticks);
  if (cl.eval_ticks) builder.eval_ticks(*cl.eval_ticks);
  builder.monitor_servers(cl.monitor_servers);
  builder.tune_write_cache(cl.tune_write_cache);
  if (!cl.csv_prefix.empty()) {
    // Like csv_phase_sink, but confirming each file on stdout, and only
    // when it was actually written.
    builder.on_phase_end([prefix = cl.csv_prefix](const PhaseReport& report) {
      const std::string path = prefix + "_" + report.label + ".csv";
      std::ofstream out(path);
      out << run_result_csv(report.result);
      if (out) {
        std::printf("  wrote %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "  cannot write %s\n", path.c_str());
      }
    });
  }
}

std::string render_option_tables() {
  EvaluationPreset preset = fast_preset();
  CommandLine cli;
  const OptionTarget defaults{&preset, &cli};
  // A markdown table cell: pipes escaped, optionally in backticks.
  auto cell = [](std::string_view text, bool code = false) {
    std::string escaped = code ? "`" : "";
    for (const char c : text) {
      if (c == '|') escaped += '\\';
      escaped += c;
    }
    if (code) escaped += '`';
    return escaped;
  };
  auto default_cell = [&](const Option& row) -> std::string {
    if (row.flag != nullptr && row.arg == nullptr) return "";
    const auto value = read_value(row, defaults);
    if (!value) return "unset";
    return value->empty() ? "" : cell(*value, true);
  };
  auto values_cell = [&](const Option& row) -> std::string {
    const Option::Type type = row.type();
    if (type == Option::Type::kBool) return "bool";
    if (type == Option::Type::kText) return "text";
    if (type != Option::Type::kInt && type != Option::Type::kReal) {
      return cell(row.arg, true);
    }
    const std::string kind = type == Option::Type::kInt ? "int" : "real";
    return row.lo == -kInf ? kind : kind + " " + range_text(row);
  };

  std::string out;
  auto table = [&](const std::string& heading, const char* columns) {
    if (!out.empty()) out += "\n";
    out += heading + "\n\n" + columns;
  };
  for (const unsigned tool :
       {kCapesRun, kCapesAgentd, kCapesReplay, kCapesDaemond}) {
    table(std::string("### ") + tool_name(tool) + " flags",
          "| Flag | Default | Meaning |\n| ---- | ------- | ------- |\n");
    for (const Option& row : kOptions) {
      if (row.flag == nullptr || (row.tools & tool) == 0) continue;
      std::string meaning = row.doc;
      if (row.key) meaning += std::string(" (conf: `") + row.key + "`)";
      if (row.need != Option::Need::kOptional) meaning += "; required";
      out += "| " + cell(flag_syntax(row), true) + " | " + default_cell(row) +
             " | " + cell(meaning) + " |\n";
    }
  }
  std::string_view section;
  for (const Option& row : kOptions) {
    if (row.key == nullptr) continue;
    const std::string_view key = row.key;
    if (key.substr(0, key.find('.')) != section) {
      section = key.substr(0, key.find('.'));
      table("### `" + std::string(section) + ".*` keys",
            "| Key | Default | Values | Meaning |\n"
            "| --- | ------- | ------ | ------- |\n");
    }
    std::string meaning = row.doc;
    if (row.flag) meaning += std::string(" (flag: `") + row.flag + "`)";
    out += "| " + cell(key, true) + " | " + default_cell(row) + " | " +
           values_cell(row) + " | " + cell(meaning) + " |\n";
  }
  return out;
}

}  // namespace capes::core
