// capes_daemond — the standalone Interface Daemon + DRL Engine process
// of the distributed control plane (§3.3's deployment: Monitoring Agents
// feed a central daemon that hosts the Replay DB and the DRL brain).
//
// The daemon listens on a TCP endpoint, accepts one capes_agentd
// connection, and runs a core::BrainService session over it: the entire
// run topology (workload meta, per-domain action spaces) arrives in the
// client's Hello, exactly the way a capture file's header rebuilds a run
// in capes_replay — the daemon needs no workload flags of its own.
// With --port=0 the kernel picks an ephemeral port and the daemon prints
// it on stdout (flushed before accepting), so scripts can launch the
// pair without coordinating port numbers.

#include <cstdio>
#include <string>

#include "core/brain_service.hpp"
#include "core/options.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"

using namespace capes;

namespace {

constexpr const char* kAbout =
    "Hosts the Interface Daemon + DRL Engine half of a distributed CAPES\n"
    "run: listens on --host:--port, accepts one capes_agentd connection and\n"
    "serves its training session. The run topology arrives in the agent's\n"
    "handshake, so the daemon needs no workload configuration of its own.\n"
    "It prints 'listening on HOST:PORT' (flushed) before accepting, so\n"
    "scripts can read back an ephemeral port. Exits after the session: 0 on\n"
    "a clean agent Bye or link death (loss is the agent's to report), 1 on a\n"
    "setup or protocol error.\n";

}  // namespace

int main(int argc, char** argv) {
  core::CommandLine args;
  if (const auto exit_code =
          core::parse_or_exit(core::kCapesDaemond, argc, argv, kAbout, &args)) {
    return *exit_code;
  }

  std::string error;
  const int listen_fd = net::tcp_listen(
      args.host, static_cast<std::uint16_t>(args.port), &error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "capes_daemond: %s\n", error.c_str());
    return 1;
  }
  const std::uint16_t port = net::local_port(listen_fd);
  // Flush before blocking in accept: launcher scripts parse this line to
  // learn an ephemeral port.
  std::printf("capes_daemond listening on %s:%u\n", args.host.c_str(),
              static_cast<unsigned>(port));
  std::fflush(stdout);

  const int conn_fd =
      net::accept_connection(listen_fd, args.accept_timeout_ms, &error);
  net::close_socket(listen_fd);
  if (conn_fd < 0) {
    std::fprintf(stderr, "capes_daemond: %s\n", error.c_str());
    return 1;
  }

  net::EndpointOptions ep_opts;
  ep_opts.idle_timeout_ms = args.idle_timeout_ms;
  net::Endpoint endpoint(conn_fd, ep_opts);

  core::BrainService service;
  const auto report = service.serve(endpoint);
  endpoint.close();

  if (!report.hello_ok) {
    std::fprintf(stderr, "capes_daemond: session failed before handshake%s%s\n",
                 report.error.empty() ? "" : ": ",
                 report.error.c_str());
    return 1;
  }
  std::printf("session: %lld ticks, %zu domains, %llu status / %llu reward "
              "records, %llu actions broadcast, %llu vetoed\n",
              static_cast<long long>(report.ticks), report.num_domains,
              static_cast<unsigned long long>(report.status_records),
              static_cast<unsigned long long>(report.reward_records),
              static_cast<unsigned long long>(report.actions_broadcast),
              static_cast<unsigned long long>(report.actions_vetoed));
  if (report.decode_errors > 0) {
    std::printf("  %llu malformed PI payloads dropped\n",
                static_cast<unsigned long long>(report.decode_errors));
  }
  std::printf("shutdown: %s\n",
              report.clean_shutdown ? "clean (agent Bye)" : "link death");
  // The same determinism handle capes_run prints: CI compares this line
  // against the in-process run's.
  std::printf("training fingerprint %08x (%zu train steps)\n",
              report.fingerprint, report.train_steps);
  if (!report.error.empty()) {
    std::fprintf(stderr, "capes_daemond: %s\n", report.error.c_str());
    return 1;
  }
  return 0;
}
