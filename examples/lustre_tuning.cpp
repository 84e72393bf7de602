// The paper's evaluation workflow (Appendix A.4) on the simulated Lustre
// cluster, end to end:
//
//   1. set up the target system (cluster + write-heavy workload),
//   2. turn on CAPES and run a training session,
//   3. turn CAPES off and measure the baseline,
//   4. turn CAPES on and measure the tuned throughput,
//   5. checkpoint the trained model for the next session.
//
// All of it goes through the core::Experiment facade. Accepts an optional
// conf-file path (the conf.py analogue); see the keys in
// docs/CONFIG.md. Example:
//     ./build/examples/lustre_tuning my.conf

#include <cstdio>

#include "core/experiment.hpp"

using namespace capes;

int main(int argc, char** argv) {
  // 1. Target system: the 5-client/4-server cluster with a write-heavy
  //    random workload (the paper's best case). The laptop-scale preset
  //    is the default; a conf file overrides any subset.
  auto builder = core::Experiment::builder().workload("random:0.1");
  if (argc > 1) builder.config_file(argv[1]);

  std::string error;
  auto experiment = builder.build(&error);
  if (!experiment) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (argc > 1) std::printf("loaded overrides from %s\n", argv[1]);

  // 2. Training session ("24 hours" scaled).
  std::printf("training for %lld ticks...\n",
              static_cast<long long>(experiment->preset().train_ticks_long));
  const auto training = experiment->run_training();
  std::printf("  ran %zu training steps; session throughput %s MB/s\n",
              training.result.train_steps,
              training.throughput.to_string().c_str());

  // 3. Baseline: default max_rpcs_in_flight = 8, no rate limit.
  const auto baseline = experiment->run_baseline();
  std::printf("baseline  %s MB/s (default Lustre settings)\n",
              baseline.throughput.to_string().c_str());

  // 4. Tuned: CAPES steering with 5% exploration.
  const auto tuned = experiment->run_tuned();
  std::printf("tuned     %s MB/s  -> %+.1f%%\n",
              tuned.throughput.to_string().c_str(),
              experiment->report().tuned_gain_percent());
  std::printf("  final parameters: max_rpcs_in_flight=%.0f, rate_limit=%.0f/s\n",
              experiment->parameter_values()[0],
              experiment->parameter_values()[1]);

  // 5. Checkpoint for the next session (loaded automatically by
  //    Experiment::load_model).
  const char* ckpt = "capes_lustre_model.bin";
  if (experiment->save_model(ckpt)) {
    std::printf("model checkpointed to %s\n", ckpt);
  }
  return 0;
}
