// capes_agentd — the standalone agent-side process of the distributed
// control plane: hosts the simulated cluster plus its Monitoring and
// Control Agents, and connects out to a capes_daemond that hosts the
// Interface Daemon + DRL Engine (§3.3's deployment split).
//
// A thin wrapper over the same core::Experiment facade capes_run drives:
// the only mandatory flag is --daemon=HOST:PORT, which becomes the
// `tcp:` transport spec, flipping core::CapesSystem into remote-brain
// mode. Workload, tick counts, seeds and CSV output all behave exactly
// like capes_run, so a loopback pair is directly comparable to an
// in-process run — down to the training fingerprint.

#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "core/options.hpp"
#include "core/remote_brain.hpp"

using namespace capes;

namespace {

constexpr const char* kAbout =
    "Runs the agent-side half of a distributed CAPES deployment: the\n"
    "simulated cluster with its Monitoring and Control Agents, connected\n"
    "over TCP to a capes_daemond that hosts the Interface Daemon and DRL\n"
    "Engine. The connection retries with capped backoff, so either process\n"
    "may start first. Every other flag matches capes_run: over loopback the\n"
    "training fingerprint is bit-identical to 'capes_run --transport=sync'\n"
    "at the same seed. If the daemon dies mid-run the agent finishes the\n"
    "phase offline (loss is counted in messages_dropped) and exits cleanly.\n";

}  // namespace

int main(int argc, char** argv) {
  core::CommandLine args;
  if (const auto exit_code =
          core::parse_or_exit(core::kCapesAgentd, argc, argv, kAbout, &args)) {
    return *exit_code;
  }
  auto builder = core::Experiment::builder();
  core::apply_command_line(args, builder);
  builder.transport("tcp:host=" + args.daemon.host +
                    ",port=" + std::to_string(args.daemon.port) +
                    ",connect_timeout_ms=" +
                    std::to_string(args.connect_timeout_ms));

  std::string error;
  auto experiment = builder.build(&error);
  if (!experiment) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  const std::int64_t train = experiment->default_train_ticks();
  std::printf("daemon %s:%lld, workload %s, %lld training ticks, %lld eval "
              "ticks, seed %llu\n",
              args.daemon.host.c_str(),
              static_cast<long long>(args.daemon.port),
              experiment->workload_name().c_str(),
              static_cast<long long>(train),
              static_cast<long long>(experiment->default_eval_ticks()),
              static_cast<unsigned long long>(
                  experiment->preset().capes.engine.dqn.seed));
  std::fflush(stdout);

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

  // Link-loss accounting: anything shed at the endpoint, dropped because
  // the link died, or lost to a daemon crash shows up here — a healthy
  // loopback run prints zeros.
  std::uint64_t dropped = 0;
  for (const auto& phase : report.phases) {
    dropped += phase.result.messages_dropped;
  }
  std::printf("control network (tcp): %llu messages dropped, link %s\n",
              static_cast<unsigned long long>(dropped),
              experiment->system().brain_client() &&
                      experiment->system().brain_client()->alive()
                  ? "alive"
                  : "dead");

  std::printf("training fingerprint %08x (%zu train steps)\n",
              experiment->system().training_fingerprint(),
              experiment->system().total_train_steps());

  if (auto* writer = experiment->system().capture_writer()) {
    writer->close();
    std::printf("capture: %llu records (%llu dropped, %llu bytes) -> %s\n",
                static_cast<unsigned long long>(writer->records_logged()),
                static_cast<unsigned long long>(writer->records_dropped()),
                static_cast<unsigned long long>(writer->bytes_written()),
                experiment->preset().capes.capture_path.c_str());
  }
  return 0;
}
