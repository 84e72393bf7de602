#pragma once
// Replay database (§3.5): per-tick performance-indicator snapshots,
// actions, and rewards, indexed by the sampling tick t. Backed by the
// waldb store for durability; a flat in-memory cache (the paper kept the
// whole DB in NumPy arrays) serves observation construction and the
// Algorithm 1 minibatch sampler.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"
#include "waldb/database.hpp"

namespace capes::util {
class ThreadPool;
}

namespace capes::rl {

/// One training sample w_t = (s_t, s_{t+1}, a_t, r_t) packed as matrices.
struct Minibatch {
  nn::Matrix states;        ///< [n, observation_size]
  nn::Matrix next_states;   ///< [n, observation_size]
  std::vector<std::size_t> actions;
  std::vector<float> rewards;
  std::size_t size() const { return actions.size(); }
};

/// Replay DB configuration; mirrors the Table 1 hyperparameters that shape
/// observations.
struct ReplayDbOptions {
  std::size_t num_nodes = 5;
  std::size_t pis_per_node = 9;
  std::size_t ticks_per_observation = 10;  // Table 1: sampling ticks per observation
  double missing_tolerance = 0.2;          // Table 1: missing entry tolerance
  std::size_t max_ticks_retained = 0;      // 0 = unlimited

  bool operator==(const ReplayDbOptions&) const = default;
};

class ReplayDb {
 public:
  /// `db` may be null for a memory-only replay DB (no durability).
  explicit ReplayDb(ReplayDbOptions opts, waldb::Database* db = nullptr);

  const ReplayDbOptions& options() const { return opts_; }
  std::size_t observation_size() const {
    return opts_.num_nodes * opts_.pis_per_node * opts_.ticks_per_observation;
  }

  /// Record one node's PI vector for tick t (must have pis_per_node
  /// entries). Recording twice for the same (t, node) overwrites. Under
  /// multi-cluster control, `node` is the domain-namespaced global node
  /// index (domain node offset + local node), so every domain writes a
  /// disjoint slice of the tick row.
  void record_status(std::int64_t t, std::size_t node,
                     const std::vector<float>& pis);

  /// Record the action chosen at tick t.
  void record_action(std::int64_t t, std::size_t action);

  /// Record the objective-function output (reward input) at tick t.
  void record_reward(std::int64_t t, double reward);

  std::optional<std::size_t> action_at(std::int64_t t) const;
  std::optional<double> reward_at(std::int64_t t) const;
  /// PI vector of `node` at tick `t`, if recorded.
  std::optional<std::vector<float>> status_at(std::int64_t t, std::size_t node) const;

  std::int64_t min_tick() const { return min_tick_; }
  std::int64_t max_tick() const { return max_tick_; }
  std::size_t tick_count() const { return ticks_.size(); }

  /// True when an observation ending at tick t can be constructed: all
  /// ticks (t - S + 1 .. t) exist with at most `missing_tolerance` of
  /// node-tick entries missing (missing entries are filled with the last
  /// known value for that node, or zero if none).
  bool has_observation(std::int64_t t) const;

  /// Build the flattened observation ending at t (row-major: tick-major,
  /// then node, then PI — the §3.4 matrix). Returns false if
  /// has_observation(t) is false.
  bool build_observation(std::int64_t t, float* out) const;

  /// Algorithm 1: construct a minibatch of n transitions by uniform
  /// timestamp sampling. Returns nullopt when the DB cannot possibly
  /// provide n transitions (too few complete ticks) after
  /// `max_rounds` sampling rounds. Timestamps are always drawn serially
  /// (the RNG stream is pool-independent); with a `pool` the observation
  /// rows are assembled in parallel, producing the identical batch.
  std::optional<Minibatch> construct_minibatch(std::size_t n, util::Rng& rng,
                                               std::size_t max_rounds = 64,
                                               util::ThreadPool* pool = nullptr) const;

  /// Allocation-free variant: assembles the batch into `out`, reusing its
  /// matrices' capacity (zero heap traffic once capacities have warmed
  /// up). Same sampling stream as construct_minibatch. Returns false when
  /// the DB cannot provide n transitions. Not safe for concurrent callers
  /// (shared sampling scratch).
  bool construct_minibatch_into(Minibatch& out, std::size_t n, util::Rng& rng,
                                std::size_t max_rounds = 64,
                                util::ThreadPool* pool = nullptr) const;

  /// Fill up to `max_batches` caller-owned minibatch slots back-to-back
  /// (the async learner's feed: the engine collects free job slots and
  /// drains fresh batches into them in one call). Draws from `rng`
  /// exactly like that many construct_minibatch calls. Returns the number
  /// of slots filled; stops early once the DB runs out of transitions.
  std::size_t drain_minibatches(Minibatch* const* slots, std::size_t max_batches,
                                std::size_t batch_size, util::Rng& rng,
                                std::size_t max_rounds = 64,
                                util::ThreadPool* pool = nullptr) const;

  /// Number of ticks t for which a full transition (obs(t), obs(t+1),
  /// action(t), reward(t+1)) is available. O(ticks); used by tests/benches.
  std::size_t usable_transitions() const;

  /// Approximate resident bytes of the in-memory cache.
  std::size_t memory_bytes() const;

 private:
  struct TickData {
    std::vector<float> pis;        // num_nodes * pis_per_node
    std::vector<bool> node_present;  // per node
    bool has_action = false;
    std::size_t action = 0;
    bool has_reward = false;
    double reward = 0.0;
  };

  TickData& tick(std::int64_t t);
  const TickData* find_tick(std::int64_t t) const;
  bool transition_available(std::int64_t t) const;
  bool build_observation_into(std::int64_t t, float* out,
                              std::vector<float>& last_known) const;
  void persist_status(std::int64_t t, std::size_t node,
                      const std::vector<float>& pis);
  void trim_retention();

  using TickMap = std::unordered_map<std::int64_t, TickData>;

  ReplayDbOptions opts_;
  waldb::Database* db_;
  TickMap ticks_;
  std::int64_t min_tick_ = 0;
  std::int64_t max_tick_ = -1;
  /// Hash nodes recycled from trim_retention so a retention-bounded DB
  /// inserts new ticks without touching the heap.
  std::vector<TickMap::node_type> free_nodes_;
  /// Sampling scratch for the _into paths (single caller at a time).
  mutable std::vector<std::int64_t> chosen_scratch_;
  mutable std::vector<float> last_known_scratch_;
};

}  // namespace capes::rl
