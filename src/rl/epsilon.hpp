#pragma once
// Epsilon-greedy exploration schedule (§3.6): epsilon anneals linearly
// from an initial value (1.0) to a final value (0.05) over the exploration
// period; when the Interface Daemon reports a new workload, epsilon is
// bumped up (to 0.2) so the agent re-explores around the new regime.

#include <cstdint>

namespace capes::rl {

class EpsilonSchedule {
 public:
  struct Options {
    double initial = 1.0;          // Table 1: epsilon initial value
    double final_value = 0.05;     // Table 1: epsilon final value
    std::int64_t anneal_ticks = 7200;  // Table 1: initial exploration period (2 h @ 1 Hz)
    double bump_value = 0.2;       // §3.6: workload-change bump
    std::int64_t bump_ticks = 600; // how long a bump persists before re-annealing

    bool operator==(const Options&) const = default;
  };

  EpsilonSchedule() = default;
  explicit EpsilonSchedule(Options opts) : opts_(opts) {}

  /// Epsilon at tick `t` (ticks since training start).
  double value(std::int64_t t) const;

  /// Notify that a new workload started at tick `t`: epsilon becomes at
  /// least `bump_value` for the next `bump_ticks`, then decays linearly
  /// back to the base schedule.
  void notify_workload_change(std::int64_t t);

  const Options& options() const { return opts_; }

 private:
  double base_value(std::int64_t t) const;

  Options opts_;
  std::int64_t bump_start_ = -1;
};

}  // namespace capes::rl
