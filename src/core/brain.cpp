#include "core/brain.hpp"

#include "util/alloc_hook.hpp"
#include "waldb/database.hpp"

namespace capes::core {

BrainOptions brain_options_from_meta(const capture::TraceMeta& m) {
  BrainOptions o;
  o.replay.num_nodes = m.num_nodes;
  o.replay.pis_per_node = m.pis_per_node;
  o.replay.ticks_per_observation = m.ticks_per_observation;
  o.replay.missing_tolerance = m.missing_tolerance;
  o.replay.max_ticks_retained = m.max_ticks_retained;
  DrlEngineOptions& e = o.engine;
  e.seed = m.engine_seed;
  e.dqn.seed = m.dqn_seed;
  e.dqn.num_actions = m.num_actions;
  e.dqn.num_hidden_layers = m.num_hidden_layers;
  e.dqn.hidden_size = m.hidden_size;
  e.dqn.gamma = m.gamma;
  e.dqn.learning_rate = m.learning_rate;
  e.dqn.target_update_alpha = m.target_update_alpha;
  e.dqn.loss = static_cast<rl::LossKind>(m.loss_kind);
  e.dqn.use_target_network = m.use_target_network;
  e.dqn.use_double_dqn = m.use_double_dqn;
  e.dqn.activation = static_cast<nn::Activation>(m.activation);
  e.epsilon.initial = m.epsilon_initial;
  e.epsilon.final_value = m.epsilon_final;
  e.epsilon.anneal_ticks = m.epsilon_anneal_ticks;
  e.epsilon.bump_value = m.epsilon_bump_value;
  e.epsilon.bump_ticks = m.epsilon_bump_ticks;
  e.minibatch_size = m.minibatch_size;
  e.train_steps_per_tick = m.train_steps_per_tick;
  e.eval_epsilon = m.eval_epsilon;
  return o;
}

Brain::Brain(const BrainOptions& opts, std::vector<ActionSlice> slices,
             bus::Transport* transport, waldb::Database* db)
    : replay_(opts.replay, db),
      daemon_(replay_, std::move(slices), transport),
      engine_(opts.engine, replay_) {
  if (db != nullptr) {
    // Durable learner checkpoints ride the same WAL-framed store as the
    // replay tables; a restarted tuner resumes mid-training. The replay
    // cache itself is rebuilt from fresh samples, not reloaded.
    engine_.set_checkpoint_store(db);
    engine_.restore_checkpoint(*db);
  }
}

TickOutcome Brain::tick(std::int64_t t, RunPhase phase, util::ThreadPool* pool,
                        std::optional<std::size_t> traced) {
  TickOutcome out;
  const bool training = phase == RunPhase::kTraining;
  util::AllocTally alloc_tally;
  if (training || phase == RunPhase::kTuned) {
    out.suggested = engine_.compute_action(t, training, pool);
  }
  if (traced) {
    out.recorded = *traced;
    replay_.record_action(t, out.recorded);
  } else {
    out.recorded = daemon_.route_suggested_action(t, out.suggested);
  }
  hot_path_allocs_ += alloc_tally.delta();
  // Deliver the checked broadcasts due by this tick (the one just routed
  // under sync; under a lossy transport possibly earlier delayed ones).
  daemon_.drain_actions(t);
  if (training) {
    out.train_steps = engine_.train_tick(pool);
    total_train_steps_ += out.train_steps;
  }
  out.total_train_steps = total_train_steps_;
  return out;
}

}  // namespace capes::core
