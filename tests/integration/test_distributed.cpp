// Distributed control-plane integration: a CapesSystem whose DRL brain
// lives behind a loopback `tcp:` link to an in-process BrainService (the
// capes_daemond session logic) must train bit-identically to the
// in-process `sync` path — same weights fingerprint, same per-tick CSVs
// — and captures from the distributed run must replay through the
// standard trace replayer. Also pinned: neither side hangs when the
// other vanishes mid-phase.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/brain_service.hpp"
#include "core/capes_system.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "core/remote_brain.hpp"
#include "core/trace_replay.hpp"
#include "lustre/cluster.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "workload/random_rw.hpp"

namespace capes {
namespace {

/// One capes_daemond session on a test thread: listen on an ephemeral
/// loopback port, accept one peer, serve it. kill_link() simulates the
/// daemon dying mid-phase by closing the endpoint under the client.
class ServiceThread {
 public:
  bool start() {
    std::string error;
    listen_fd_ = net::tcp_listen("127.0.0.1", 0, &error);
    if (listen_fd_ < 0) {
      ADD_FAILURE() << "tcp_listen: " << error;
      return false;
    }
    port_ = net::local_port(listen_fd_);
    thread_ = std::thread([this] { run(); });
    return true;
  }

  std::uint16_t port() const { return port_; }

  void kill_link() {
    std::lock_guard<std::mutex> lock(mu_);
    if (endpoint_) endpoint_->close();
  }

  core::BrainServiceReport join() {
    if (thread_.joinable()) thread_.join();
    return report_;
  }

 private:
  void run() {
    std::string error;
    const int fd = net::accept_connection(listen_fd_, 10000, &error);
    net::close_socket(listen_fd_);
    if (fd < 0) {
      report_.error = "accept: " + error;
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      endpoint_ = std::make_unique<net::Endpoint>(fd, net::EndpointOptions{});
    }
    core::BrainService service;
    report_ = service.serve(*endpoint_);
    std::lock_guard<std::mutex> lock(mu_);
    endpoint_->close();
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex mu_;
  std::unique_ptr<net::Endpoint> endpoint_;
  core::BrainServiceReport report_;
  std::thread thread_;
};

core::EvaluationPreset distributed_preset() {
  auto p = core::fast_preset(7);
  p.capes.engine.epsilon.anneal_ticks = 60;
  return p;
}

struct RunOutcome {
  std::uint32_t fingerprint = 0;
  std::size_t train_steps = 0;
  std::string training_csv;
  std::string baseline_csv;
  std::string tuned_csv;
  std::uint64_t messages_dropped = 0;
  std::vector<double> parameters;  ///< every domain's, concatenated
};

/// The §A.4 workflow against either brain; tcp_port 0 = in-process sync.
/// One RandomRw cluster (control domain) per read fraction.
RunOutcome run_workflow(std::uint16_t tcp_port,
                        const std::string& capture_path = "",
                        const std::vector<double>& read_fractions = {0.1}) {
  auto preset = distributed_preset();
  if (tcp_port != 0) {
    preset.capes.transport.kind = bus::TransportKind::kTcp;
    preset.capes.transport.tcp_host = "127.0.0.1";
    preset.capes.transport.tcp_port = tcp_port;
  }
  preset.capes.capture_path = capture_path;
  sim::Simulator sim;
  std::vector<std::unique_ptr<lustre::Cluster>> clusters;
  std::vector<std::unique_ptr<workload::RandomRw>> workloads;
  std::vector<core::ControlDomainSpec> specs;
  for (const double read_fraction : read_fractions) {
    clusters.push_back(std::make_unique<lustre::Cluster>(sim, preset.cluster));
    workload::RandomRwOptions wopts;
    wopts.read_fraction = read_fraction;
    workloads.push_back(
        std::make_unique<workload::RandomRw>(*clusters.back(), wopts));
    workloads.back()->start();
    core::ControlDomainSpec spec;
    spec.adapter = clusters.back().get();
    specs.push_back(spec);
  }
  core::CapesSystem capes(sim, specs, preset.capes);
  sim.run_until(sim::seconds(3));

  RunOutcome out;
  const auto training = capes.run_training(80);
  const auto baseline = capes.run_baseline(30);
  const auto tuned = capes.run_tuned(30);
  out.training_csv = core::run_result_csv(training);
  out.baseline_csv = core::run_result_csv(baseline);
  out.tuned_csv = core::run_result_csv(tuned);
  out.messages_dropped = training.messages_dropped +
                         baseline.messages_dropped + tuned.messages_dropped;
  out.fingerprint = capes.training_fingerprint();
  out.train_steps = capes.total_train_steps();
  out.parameters = capes.parameter_values();
  if (auto* writer = capes.capture_writer()) {
    EXPECT_TRUE(writer->close());
    EXPECT_EQ(writer->records_dropped(), 0u);
  }
  return out;
}

TEST(Distributed, LoopbackTcpMatchesSyncBitExactly) {
  const RunOutcome local = run_workflow(0);
  ASSERT_GT(local.train_steps, 0u);

  ServiceThread service;
  ASSERT_TRUE(service.start());
  const RunOutcome remote = run_workflow(service.port());
  const auto report = service.join();

  ASSERT_TRUE(report.hello_ok) << report.error;
  EXPECT_TRUE(report.clean_shutdown);
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.decode_errors, 0u);

  // Zero loss on loopback...
  EXPECT_EQ(remote.messages_dropped, 0u);
  // ...means the remote brain is a transparent extension: identical
  // weights, identical step count, identical per-tick phase CSVs.
  EXPECT_EQ(remote.fingerprint, local.fingerprint);
  EXPECT_EQ(remote.train_steps, local.train_steps);
  EXPECT_EQ(report.fingerprint, local.fingerprint);
  EXPECT_EQ(report.train_steps, local.train_steps);
  EXPECT_EQ(remote.training_csv, local.training_csv);
  EXPECT_EQ(remote.baseline_csv, local.baseline_csv);
  EXPECT_EQ(remote.tuned_csv, local.tuned_csv);
}

TEST(Distributed, LoopbackTcpMatchesSyncAcrossThreeDomains) {
  // Three domains put three action slices on each side of the wire: the
  // service must route every composite action to the slice that owns it
  // and check it against that slice's parameter mirror, exactly as the
  // in-process daemon does against the domains' own vectors.
  const std::vector<double> read_fractions = {0.1, 0.4, 0.7};
  const RunOutcome local = run_workflow(0, "", read_fractions);
  ASSERT_GT(local.train_steps, 0u);

  ServiceThread service;
  ASSERT_TRUE(service.start());
  const RunOutcome remote = run_workflow(service.port(), "", read_fractions);
  const auto report = service.join();

  ASSERT_TRUE(report.hello_ok) << report.error;
  EXPECT_TRUE(report.clean_shutdown);
  EXPECT_EQ(report.num_domains, 3u);
  EXPECT_GT(report.actions_broadcast, 0u);
  EXPECT_EQ(remote.messages_dropped, 0u);
  EXPECT_EQ(remote.fingerprint, local.fingerprint);
  EXPECT_EQ(remote.train_steps, local.train_steps);
  EXPECT_EQ(report.fingerprint, local.fingerprint);
  EXPECT_EQ(remote.training_csv, local.training_csv);
  EXPECT_EQ(remote.baseline_csv, local.baseline_csv);
  EXPECT_EQ(remote.tuned_csv, local.tuned_csv);
  EXPECT_EQ(remote.parameters, local.parameters);
}

TEST(Distributed, CaptureFromDistributedRunReplaysIdentically) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("capes_dist_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "dist.cap").string();

  ServiceThread service;
  ASSERT_TRUE(service.start());
  const RunOutcome remote = run_workflow(service.port(), path);
  service.join();
  ASSERT_GT(remote.train_steps, 0u);

  // The capture was written agent-side, from wire traffic — and still
  // replays through the standard single-process replayer, reproducing
  // the daemon's weights exactly.
  core::TraceReplayer replayer;
  core::TraceReplayOptions opts;
  opts.speed = core::ReplaySpeed::kMax;
  std::string error;
  ASSERT_TRUE(replayer.open(path, opts, &error)) << error;
  const auto report = replayer.run();
  EXPECT_EQ(report.decode_errors, 0u);
  EXPECT_EQ(report.action_mismatches, 0u);
  EXPECT_EQ(report.total_train_steps, remote.train_steps);
  EXPECT_EQ(report.weights_fingerprint, remote.fingerprint);
  std::filesystem::remove_all(dir);
}

TEST(Distributed, DaemonDeathMidPhaseDoesNotHangTheAgent) {
  ServiceThread service;
  ASSERT_TRUE(service.start());

  auto preset = distributed_preset();
  preset.capes.transport.kind = bus::TransportKind::kTcp;
  preset.capes.transport.tcp_host = "127.0.0.1";
  preset.capes.transport.tcp_port = service.port();
  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));

  const auto before = capes.run_training(30);
  EXPECT_EQ(before.messages_dropped, 0u);
  ASSERT_NE(capes.brain_client(), nullptr);
  EXPECT_TRUE(capes.brain_client()->alive());

  // The daemon dies between ticks; the agent must finish the phase
  // offline — no actions, loss counted, no hang (enforced by the test
  // timeout) — rather than block in a dead recv().
  service.kill_link();
  const auto after = capes.run_training(30);
  EXPECT_GT(after.messages_dropped, 0u);
  EXPECT_FALSE(capes.brain_client()->alive());
  // No brain means no actions and no training happened after the death.
  EXPECT_EQ(after.train_steps, 0u);
  service.join();
}

TEST(Distributed, AgentVanishingEndsServeWithoutCleanShutdown) {
  std::string error;
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, &error);
  ASSERT_GE(listen_fd, 0) << error;
  const std::uint16_t port = net::local_port(listen_fd);
  const int client_fd = net::tcp_connect("127.0.0.1", port, 5000, &error);
  ASSERT_GE(client_fd, 0) << error;
  const int server_fd = net::accept_connection(listen_fd, 5000, &error);
  ASSERT_GE(server_fd, 0) << error;
  net::close_socket(listen_fd);

  net::Endpoint server(server_fd, net::EndpointOptions{});
  // The "agent" connects and dies without so much as a Hello. serve()
  // must return promptly (EOF), not wait for a Bye that never comes.
  std::thread killer([client_fd] {
    net::Endpoint client(client_fd, net::EndpointOptions{});
    client.close();
  });
  core::BrainService service;
  const auto report = service.serve(server);
  killer.join();
  EXPECT_FALSE(report.hello_ok);
  EXPECT_FALSE(report.clean_shutdown);
  EXPECT_EQ(report.ticks, 0);
  server.close();
}

}  // namespace
}  // namespace capes
