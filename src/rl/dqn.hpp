#pragma once
// Deep Q-learning engine core (§2, §3.4): an online Q-network mapping an
// observation to one Q-value per action (the paper's "second type" head),
// a soft-updated target network, Adam, and the Bellman/MSE training step
// of Equation 1.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "rl/replay_db.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace capes::util {
class ThreadPool;
}

namespace capes::rl {

enum class LossKind { kMse, kHuber };

struct DqnOptions {
  std::size_t observation_size = 0;  ///< input width (required)
  std::size_t num_actions = 0;       ///< output width (required)
  /// Number of hidden layers; each is `hidden_size` wide (Table 1: 2
  /// hidden layers, each "the same size as the input" — hidden_size 0
  /// means "use observation_size").
  std::size_t num_hidden_layers = 2;
  std::size_t hidden_size = 0;
  float gamma = 0.99f;               ///< Table 1: discount rate
  float learning_rate = 1e-4f;       ///< Table 1: Adam learning rate
  float target_update_alpha = 0.01f; ///< Table 1: target network update rate
  LossKind loss = LossKind::kMse;
  bool use_target_network = true;    ///< ablation switch
  /// Double DQN (van Hasselt et al.): pick argmax a' with the online
  /// network, evaluate it with the target network. Counters the max
  /// operator's overestimation bias, which in this domain inflates the
  /// value of the noisy congestion-collapse region. Off in the paper
  /// preset (the 2017 system used vanilla DQN), on in the fast preset.
  bool use_double_dqn = false;
  std::uint64_t seed = 42;
  nn::Activation activation = nn::Activation::kTanh;

  bool operator==(const DqnOptions&) const = default;
};

/// Result of one training step.
struct TrainStepResult {
  float loss = 0.0f;
  /// Mean |Q(s,a) - (r + gamma max_a' Qtarget(s',a'))| over the batch —
  /// the "prediction error" plotted in Figure 5.
  float prediction_error = 0.0f;
};

class Dqn {
 public:
  explicit Dqn(DqnOptions opts);

  const DqnOptions& options() const { return opts_; }
  std::size_t hidden_size() const;

  /// Q-values for one observation (length = num_actions).
  std::vector<float> q_values(const std::vector<float>& observation,
                              util::ThreadPool* pool = nullptr);

  /// Greedy action (argmax over Q-values).
  std::size_t greedy_action(const std::vector<float>& observation,
                            util::ThreadPool* pool = nullptr);

  /// Epsilon-greedy selection: random with probability epsilon, greedy
  /// otherwise.
  std::size_t select_action(const std::vector<float>& observation,
                            double epsilon, util::Rng& rng,
                            util::ThreadPool* pool = nullptr);

  /// One minibatch SGD step against the Bellman target (Equation 1),
  /// followed by the soft target-network update.
  TrainStepResult train_step(const Minibatch& batch,
                             util::ThreadPool* pool = nullptr);

  std::size_t train_steps() const { return train_steps_; }

  nn::Mlp& online_network() { return *online_; }
  const nn::Mlp& online_network() const { return *online_; }
  const nn::Mlp& target_network() const { return *target_; }

  /// Model checkpointing (§A.4: CAPES checkpoints the trained model when
  /// stopped and reloads on start). Only the online network is stored; the
  /// target network is re-synced on load.
  bool save_checkpoint(const std::string& path) const;
  bool load_checkpoint(const std::string& path);

  // --- Double-buffered weights (async learner) --------------------------
  //
  // The learner thread mutates the "learning" set (online_/target_/adam_)
  // and publishes an immutable snapshot of the online network at swap
  // points; the acting path reads that snapshot lock-free. While no
  // snapshot has been published (sync mode) the acting path reads online_
  // directly, so sync behaviour is byte-for-byte what it was before.

  /// Snapshot the online network and make it the acting set. Called by the
  /// learner thread after a train step; safe against concurrent q_values/
  /// greedy_action/select_action readers.
  void publish_acting();

  /// Drop the acting snapshot (acting falls back to online_). Not safe
  /// against concurrent readers — call only when the learner is quiescent.
  void clear_acting();

  bool has_acting_snapshot() const {
    return acting_.load(std::memory_order_acquire) != nullptr;
  }

  /// CRC32 over every online-network parameter value, in stable parameter
  /// order. Pins weight equivalence in tests without dumping tensors.
  std::uint32_t weights_fingerprint() const;

  /// Full learner state for warm restarts: online + target weights, Adam
  /// moments and step counter, and train_steps(). Unlike save_checkpoint
  /// this loses nothing — a restored Dqn trains bit-identically to one
  /// that never stopped.
  void save_state(util::BinaryWriter& w) const;

  /// Restore save_state() output. Returns false (state untouched) on
  /// malformed data or a shape mismatch.
  bool load_state(util::BinaryReader& r);

  /// In-memory size of both networks plus optimizer state, bytes.
  std::size_t memory_bytes() const;

 private:
  /// Q-values for one observation into reusable scratch; returns act_q_.
  const std::vector<float>& q_values_scratch(
      const std::vector<float>& observation, util::ThreadPool* pool);

  DqnOptions opts_;
  util::Rng rng_;
  std::unique_ptr<nn::Mlp> online_;
  std::unique_ptr<nn::Mlp> target_;
  std::unique_ptr<nn::Adam> adam_;
  std::size_t train_steps_ = 0;

  /// Immutable acting snapshot; null until publish_acting() first runs.
  std::atomic<std::shared_ptr<const nn::Mlp>> acting_{nullptr};
  /// The snapshot the acting path is currently evaluating. forward()
  /// mutates activation caches, so each published snapshot is evaluated on
  /// a private mutable copy owned by the acting thread.
  std::shared_ptr<const nn::Mlp> acting_in_use_;
  std::unique_ptr<nn::Mlp> acting_eval_;

  // Scratch reused across calls so the steady-state acting/training path
  // performs no heap allocation.
  nn::Matrix act_input_;
  std::vector<float> act_q_;
  std::vector<float> targets_;
  nn::Matrix next_q_;
  nn::Matrix grad_;
};

}  // namespace capes::rl
