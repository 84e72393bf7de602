#pragma once
// The brain (§3.3–3.4): one Replay DB, one Interface Daemon and one DRL
// Engine, and the step they take together once per sampling tick —
// compute an action, route/check/apply/record it, deliver the checked
// broadcasts that are due, train. This is the only place that step is
// written. Three hosts run it:
//
//   CapesSystem    in-process, over the domains' own parameter vectors
//                  and the control-network transport;
//   BrainService   the capes_daemond session for a remote agent, over
//                  parameter mirrors built from the client's Hello;
//   TraceReplayer  over a capture, ingest-only, recording the traced
//                  actions instead of routing the suggestions.
//
// Each host feeds PI and reward traffic through daemon() in its own way
// and calls tick() once per sampling tick.

#include <cstdint>
#include <optional>
#include <vector>

#include "capture/trace_meta.hpp"
#include "core/drl_engine.hpp"
#include "core/interface_daemon.hpp"
#include "rl/replay_db.hpp"

namespace capes::bus {
class Transport;
}

namespace capes::util {
class ThreadPool;
}

namespace capes::waldb {
class Database;
}

namespace capes::core {

/// The §A.4 run phases. kIdle only ever appears as "no phase running".
enum class RunPhase { kIdle, kTraining, kBaseline, kTuned };

struct BrainOptions {
  rl::ReplayDbOptions replay;
  DrlEngineOptions engine;

  bool operator==(const BrainOptions&) const = default;
};

/// The brain a capture's meta (or a Hello's, which carries the same
/// snapshot) describes: topology, every Replay DB / engine / DQN
/// hyperparameter and both seeds. Always the sync learner (bit-identical
/// weights by the engine's sync == async guarantee), checkpointing off.
BrainOptions brain_options_from_meta(const capture::TraceMeta& meta);

/// What one brain step did (and, remotely, what kFrameActionsDone
/// reports back for the tick).
struct TickOutcome {
  std::size_t suggested = 0;      ///< the engine's composite action index
  std::size_t recorded = 0;       ///< post-veto (0 = NULL action)
  std::size_t train_steps = 0;    ///< minibatch steps this tick
  std::size_t total_train_steps = 0;  ///< steps this brain ran, cumulative
  /// False when a remote brain vanished before answering: the tick
  /// completes with no action applied and the loss shows up in the
  /// client's stats().dropped.
  bool link_alive = true;
};

class Brain {
 public:
  /// `slices` as InterfaceDaemon takes them (none: ingest-only).
  /// `transport` (nullable, must outlive the brain) puts the daemon's PI
  /// inbox and action broadcasts on the control network. `db` (nullable,
  /// must outlive the brain) makes the Replay DB durable and stores
  /// learner checkpoints; the latest one is restored here.
  Brain(const BrainOptions& opts, std::vector<ActionSlice> slices,
        bus::Transport* transport = nullptr, waldb::Database* db = nullptr);

  Brain(const Brain&) = delete;
  Brain& operator=(const Brain&) = delete;

  /// One brain step for sampling tick `t`. Training and tuned phases ask
  /// the engine for an action (other phases suggest NULL); the daemon
  /// routes, checks, applies and records it; broadcasts due by `t` reach
  /// the Control Agents (drain_actions); a training phase then trains.
  /// A replay passes the action its capture recorded as `traced`: that
  /// action is recorded as is, and the suggestion is still computed so
  /// the engine's RNG stream matches the live run's.
  TickOutcome tick(std::int64_t t, RunPhase phase,
                   util::ThreadPool* pool = nullptr,
                   std::optional<std::size_t> traced = std::nullopt);

  rl::ReplayDb& replay() { return replay_; }
  InterfaceDaemon& daemon() { return daemon_; }
  DrlEngine& engine() { return engine_; }

  /// Minibatch steps tick() has run (a restored checkpoint's steps are
  /// not counted; the engine's total_train_steps() includes them).
  std::size_t total_train_steps() const { return total_train_steps_; }

  /// Heap allocations inside tick()'s compute+route bracket plus the
  /// engine's training bracket. drain_actions stays outside: applying
  /// parameters runs the target system's setters, which may schedule
  /// simulator events.
  std::uint64_t hot_path_allocations() const {
    return hot_path_allocs_ + engine_.hot_path_allocations();
  }

 private:
  rl::ReplayDb replay_;
  InterfaceDaemon daemon_;
  DrlEngine engine_;
  std::size_t total_train_steps_ = 0;
  std::uint64_t hot_path_allocs_ = 0;
};

}  // namespace capes::core
