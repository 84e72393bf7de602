// capes_run — command-line driver for the simulated evaluation workflow.
//
// The C++ analogue of the prototype's service scripts (§A.3): pick a
// workload from the registry, optionally load a conf file, run the §A.4
// evaluation workflow (train -> baseline -> tuned) through the
// core::Experiment facade, and optionally dump per-tick CSVs and a model
// checkpoint. `--list-workloads` prints every registered workload with
// its spec syntax.

#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "core/options.hpp"
#include "workload/registry.hpp"

using namespace capes;

namespace {

constexpr const char* kAbout =
    "Runs the simulated evaluation workflow (train -> baseline -> tuned)\n"
    "on one or more bundled Lustre clusters, one control domain each, all\n"
    "tuned by one shared DRL brain. Seeded runs are bit-identical at any\n"
    "--threads/--sim-shards count, under either --shard-plan or --learner,\n"
    "and through --capture -> capes_replay. See docs/CONFIG.md for every\n"
    "flag and conf key.\n";

void print_workloads() {
  const auto& registry = workload::Registry::instance();
  std::printf("registered workloads:\n");
  for (const auto& name : registry.names()) {
    std::printf("  %-12s %s\n", name.c_str(),
                registry.spec_help(name).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::CommandLine args;
  if (const auto exit_code =
          core::parse_or_exit(core::kCapesRun, argc, argv, kAbout, &args)) {
    return *exit_code;
  }
  if (args.list_workloads) {
    print_workloads();
    return 0;
  }

  auto builder = core::Experiment::builder();
  core::apply_command_line(args, builder);

  std::string error;
  auto experiment = builder.build(&error);
  if (!experiment) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!args.model_in.empty()) {
    if (!experiment->load_model(args.model_in)) {
      std::fprintf(stderr, "cannot load model %s\n", args.model_in.c_str());
      return 1;
    }
    std::printf("loaded model from %s\n", args.model_in.c_str());
  }

  const std::int64_t train = experiment->default_train_ticks();
  std::printf("workload %s, %lld training ticks, %lld eval ticks, seed %llu\n",
              experiment->workload_name().c_str(),
              static_cast<long long>(train),
              static_cast<long long>(experiment->default_eval_ticks()),
              static_cast<unsigned long long>(
                  experiment->preset().capes.engine.dqn.seed));
  if (experiment->num_domains() > 1 && !experiment->system().remote_brain()) {
    std::printf("%zu control domains, observation size %zu, %zu actions\n",
                experiment->num_domains(),
                experiment->system().replay().observation_size(),
                experiment->system().action_space().num_actions());
  }
  if (experiment->simulator().num_shards() > 1) {
    std::printf("simulator event loop sharded into %zu queues across %zu "
                "domains\n",
                experiment->simulator().num_shards(),
                experiment->num_domains());
    const auto& plan = experiment->system().shard_plan();
    std::printf("shard plan: %s -- %zu domains -> %zu queues, "
                "max/mean load %.2f\n",
                sim::shard_plan_name(experiment->system().shard_plan_kind()),
                experiment->num_domains(),
                experiment->simulator().num_shards(), plan.max_over_mean());
  }

  if (train > 0) {
    std::printf("training...\n");
    const auto training = experiment->run_training();
    std::printf("  %zu train steps, session throughput %s MB/s\n",
                training.result.train_steps,
                training.throughput.to_string().c_str());
  }

  const auto baseline = experiment->run_baseline();
  std::printf("baseline: %s MB/s, latency %s ms\n",
              baseline.throughput.to_string().c_str(),
              baseline.latency.to_string().c_str());

  const auto tuned = experiment->run_tuned();
  const auto& report = experiment->report();
  std::printf("tuned:    %s MB/s, latency %s ms  (%+.1f%%)\n",
              tuned.throughput.to_string().c_str(),
              tuned.latency.to_string().c_str(),
              report.tuned_gain_percent());

  std::printf("final parameters:");
  for (std::size_t i = 0; i < report.parameter_names.size(); ++i) {
    std::printf(" %s=%.0f", report.parameter_names[i].c_str(),
                report.final_parameters[i]);
  }
  std::printf("\n");

  if (experiment->preset().capes.transport.kind == bus::TransportKind::kSim) {
    std::uint64_t dropped = 0, late = 0;
    for (const auto& phase : report.phases) {
      dropped += phase.result.messages_dropped;
      late += phase.result.messages_late;
    }
    std::printf("control network (sim): %llu messages dropped, %llu late\n",
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(late));
  }

  if (experiment->simulator().num_shards() > 1) {
    // Event-count based (deterministic), so CI can compare this line
    // across runs; the strip lists only drop it when comparing static
    // against rate placements.
    std::printf("shard imbalance (events, max/mean):");
    for (const auto& phase : report.phases) {
      std::printf(" %s %.2f", phase.label.c_str(),
                  phase.result.shard_imbalance());
    }
    std::printf(" -- %zu replans\n", experiment->system().shard_replans());
  }

  // Gated on the plan, not on whether anything fired: faults-off output
  // stays byte-identical to pre-fault builds, and a quiet faulted run
  // still reports its zeros.
  if (experiment->preset().capes.faults.enabled()) {
    std::uint64_t injected = 0, crashes = 0, stragglers = 0, partitions = 0,
                  degraded = 0;
    for (const auto& phase : report.phases) {
      injected += phase.result.faults_injected;
      crashes += phase.result.ost_crashes;
      stragglers += phase.result.stragglers;
      partitions += phase.result.partitions;
      degraded += phase.result.ticks_degraded;
    }
    std::printf("faults: %llu injected (%llu ost crashes, %llu stragglers, "
                "%llu partitions), %llu degraded domain-ticks\n",
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(crashes),
                static_cast<unsigned long long>(stragglers),
                static_cast<unsigned long long>(partitions),
                static_cast<unsigned long long>(degraded));
    std::printf("regime shifts:");
    for (const auto& phase : report.phases) {
      std::printf(" %s %zu", phase.label.c_str(), phase.result.regime_shifts);
    }
    std::printf("\n");
  }

  if (experiment->preset().capes.transport.kind == bus::TransportKind::kTcp) {
    std::uint64_t dropped = 0;
    for (const auto& phase : report.phases) {
      dropped += phase.result.messages_dropped;
    }
    std::printf("control network (tcp): %llu messages dropped\n",
                static_cast<unsigned long long>(dropped));
  }

  // Always printed: the determinism handle the capture/replay round trip
  // (and the CI cmp smokes) compare across runs. Remote-safe: under a
  // tcp: transport these come from the daemon's phase-end ack.
  std::printf("training fingerprint %08x (%zu train steps)\n",
              experiment->system().training_fingerprint(),
              experiment->system().total_train_steps());

  if (auto* writer = experiment->system().capture_writer()) {
    // Close first so the byte count reflects the fully drained sink (and
    // the header's drop count is patched before anyone reads the file).
    writer->close();
    std::printf("capture: %llu records (%llu dropped, %llu bytes) -> %s\n",
                static_cast<unsigned long long>(writer->records_logged()),
                static_cast<unsigned long long>(writer->records_dropped()),
                static_cast<unsigned long long>(writer->bytes_written()),
                experiment->preset().capes.capture_path.c_str());
  }

  if (!args.model_out.empty() && experiment->save_model(args.model_out)) {
    std::printf("model saved to %s\n", args.model_out.c_str());
  }
  return 0;
}
