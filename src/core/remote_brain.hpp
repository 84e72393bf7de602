#pragma once
// The distributed control plane's wire protocol and its agent-side half.
//
// CAPES §3.3 deploys the Monitoring Agents and Control Agents on the
// storage cluster and the Interface Daemon + DRL Engine on a dedicated
// learner box. This header defines the protocol both processes speak
// over a net::Endpoint, and BrainClient — the piece that lets a
// CapesSystem whose transport is `tcp:` run its cluster locally while
// the brain (Replay DB, DRL Engine, action checking) lives in a remote
// capes_daemond.
//
// Frame types reuse the capture::RecordType values 1..7 for every
// message that mirrors a flight-recorder record (PI status, reward,
// action, broadcast, phase markers, workload change) — the tcp wire
// carries the exact topic/sender/tick framing the capture file does, so
// a capture taken on the agent side of a distributed run replays
// byte-identically through capes_replay. Control frames (handshake,
// tick barriers, acks) live above that range.
//
// Per-tick lock step: the client ships this tick's status + reward
// frames, then kFrameTickDone; the service ingests them in FIFO order,
// runs one Brain::tick — the same brain step an in-process CapesSystem
// runs, over parameter mirrors of the client's domains — streams a
// kBroadcast frame for the slice a checked action changed, and closes
// the tick with kFrameActionsDone. Because the service consumes frames
// in send order and runs the very code the in-process path runs, a
// loopback run with zero loss is bit-identical to the `sync` transport —
// the equivalence bar tests/integration/test_distributed holds it to.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/transport.hpp"
#include "capture/trace_meta.hpp"
#include "capture/wire_format.hpp"
#include "core/brain.hpp"
#include "core/control_domain.hpp"
#include "core/interface_daemon.hpp"
#include "core/monitoring_agent.hpp"
#include "net/endpoint.hpp"

namespace capes::capture {
class WireLogWriter;
}  // namespace capes::capture

namespace capes::core {

/// Bumped on any incompatible wire change; both sides echo it in the
/// handshake and a mismatch aborts the session before any state exists.
inline constexpr std::uint32_t kWireProtoVersion = 1;

/// Control frame types, above the capture::RecordType range (1..7) those
/// record-mirroring frames reuse. 255 is the endpoint-internal heartbeat.
inline constexpr std::uint8_t kFrameHello = 16;       ///< client -> service
inline constexpr std::uint8_t kFrameHelloAck = 17;    ///< service -> client
inline constexpr std::uint8_t kFrameTickDone = 18;    ///< client -> service
inline constexpr std::uint8_t kFrameActionsDone = 19; ///< service -> client
inline constexpr std::uint8_t kFrameParamsReset = 20; ///< client -> service
inline constexpr std::uint8_t kFramePhaseEndAck = 21; ///< service -> client
inline constexpr std::uint8_t kFrameBye = 22;         ///< client -> service

/// The record-mirroring frame types, by name.
constexpr std::uint8_t frame_type(capture::RecordType t) {
  return static_cast<std::uint8_t>(t);
}

/// Wire values of the phase byte in kFrameTickDone / kPhaseBegin /
/// kPhaseEnd payloads — the RunPhase enumerators, pinned here so the
/// protocol does not silently shift if that enum is ever reordered
/// (capture files already bake these values into phase records).
inline constexpr std::uint8_t kPhaseIdle = 0;
inline constexpr std::uint8_t kPhaseTraining = 1;
inline constexpr std::uint8_t kPhaseBaseline = 2;
inline constexpr std::uint8_t kPhaseTuned = 3;

/// The kFrameHello payload: the same TraceMeta snapshot a capture file
/// leads with (topology + every engine/DQN/replay hyperparameter and
/// seed), plus each domain's action slice (offset + tunable parameters;
/// decoded slices carry no parameter vector, so the service's daemon
/// mirrors them). The service rebuilds its brain from this exactly as
/// capes_replay does from a capture — which is what makes the two
/// bit-identical.
struct HelloPayload {
  capture::TraceMeta meta;
  std::vector<ActionSlice> domains;
};

std::vector<std::uint8_t> encode_hello(const HelloPayload& hello);
/// nullopt on a version mismatch or a truncated/garbled payload.
std::optional<HelloPayload> decode_hello(const std::vector<std::uint8_t>& blob);

/// The agent-side half of the distributed control plane. Owns the tcp
/// connection to capes_daemond and stands in for the in-process
/// core::Brain on the CapesSystem tick path:
///
///   sample_all_agents -> inbox() -> flush_status(t)     (kStatus frames)
///   on_reward         -> send_reward(t, ...)            (kReward frame)
///   Brain::tick       -> end_tick(t, mode)              (kFrameTickDone,
///                        blocks for kBroadcast* + kFrameActionsDone)
///
/// The send path rides the endpoint's recycled slots, so the warm tick
/// path stays allocation-free and never blocks on a slow daemon — a full
/// outbound ring sheds frames into stats().dropped, the same surface a
/// lossy SimTransport reports on. A dead peer never hangs the loop:
/// every blocking wait exits when the endpoint marks the link dead.
class BrainClient {
 public:
  using PayloadRecycler =
      std::function<void(std::uint64_t sender, std::vector<std::uint8_t>&& payload)>;

  /// `transport` (a TcpTransport; must outlive the client) backs the
  /// local inbox channel; `opts` supplies host/port/connect_timeout_ms.
  BrainClient(bus::Transport& transport, bus::TransportOptions opts,
              net::EndpointOptions endpoint_opts = {});
  ~BrainClient();

  BrainClient(const BrainClient&) = delete;
  BrainClient& operator=(const BrainClient&) = delete;

  /// Dial the daemon (with the socket layer's capped-backoff retry until
  /// connect_timeout_ms), send kFrameHello, and block for kFrameHelloAck.
  /// `domains` must outlive the client; broadcasts apply to their
  /// parameter vectors and Control Agents. False + `*error` on refused
  /// connection, version mismatch, or a daemon that rejected the Hello.
  bool connect(const capture::TraceMeta& meta,
               std::vector<ControlDomain*> domains, std::string* error);

  /// The PI inbox Monitoring Agents publish into (same role as
  /// InterfaceDaemon::inbox()). Valid for the client's lifetime.
  PiChannel& inbox() { return inbox_; }

  /// Flight recorder for the agent-side mirror of every daemon-boundary
  /// record (nullable; must outlive the client while set).
  void set_capture(capture::WireLogWriter* writer) { capture_ = writer; }

  /// Same contract as InterfaceDaemon::set_payload_recycler: drained PI
  /// payload buffers flow back to the agent that encoded them.
  void set_payload_recycler(PayloadRecycler recycler);

  /// Ship every PI message due by tick `t` as kStatus frames, in the
  /// channel's deterministic (deliver tick, sender, send tick) order —
  /// the order the in-process daemon would have ingested them. Returns
  /// messages shipped.
  std::size_t flush_status(std::int64_t t);

  /// Ship this tick's objective output (kReward; the extra fields mirror
  /// the capture record so agent-side captures replay identically).
  void send_reward(std::int64_t t, double reward, double throughput_sum,
                   double latency_mean);

  /// Close tick `t`: send kFrameTickDone and block until the service's
  /// kFrameActionsDone, applying any kBroadcast frames (parameter vector
  /// + Control Agents of the owning domain) in arrival order on the way.
  TickOutcome end_tick(std::int64_t t, std::uint8_t mode);

  /// Phase markers (kPhaseBegin / kPhaseEnd). end_phase blocks for
  /// kFramePhaseEndAck — the remote analogue of drain_learner() — and
  /// refreshes weights_fingerprint() / total_train_steps(); false when
  /// the link died first.
  void begin_phase(std::int64_t t, std::uint8_t phase);
  bool end_phase(std::int64_t t, std::uint8_t phase);

  /// Reset every service-side parameter mirror to its initial values
  /// (run_baseline's reset, kFrameParamsReset).
  void reset_params(std::int64_t t);

  /// §3.6 workload-change hint (kWorkloadChange -> engine epsilon bump).
  void workload_change(std::int64_t t);

  /// Polite shutdown: kFrameBye, then close the endpoint. The service
  /// reports a clean session. Idempotent; the destructor calls it.
  void bye(std::int64_t t);

  bool alive() const { return endpoint_ != nullptr && endpoint_->alive(); }

  /// Last fingerprint/step count the service reported (HelloAck, then
  /// each PhaseEndAck) — the remote stand-ins for
  /// DrlEngine::weights_fingerprint() / total_train_steps().
  std::uint32_t weights_fingerprint() const { return fingerprint_; }
  std::size_t total_train_steps() const { return total_train_steps_; }

  /// Control-network accounting, shaped like InterfaceDaemon::bus_stats():
  /// the inbox channel's counters with the endpoint's shed/undeliverable
  /// frames folded into `dropped` — so PhaseReport::messages_dropped
  /// surfaces tcp loss exactly as it does sim-transport loss.
  bus::ChannelStats stats() const;

  /// The wire endpoint (null before connect); byte counters feed
  /// bench/ext_net.
  const net::Endpoint* endpoint() const { return endpoint_.get(); }

 private:
  bool send_frame(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
                  std::uint64_t sender, const std::uint8_t* payload,
                  std::size_t payload_size);
  /// Stash one received kBroadcast for end-of-tick application.
  void stash_broadcast(const net::Frame& frame);
  void apply_broadcasts(std::int64_t t);

  bus::TransportOptions opts_;
  net::EndpointOptions endpoint_opts_;
  PiChannel inbox_;
  std::vector<ControlDomain*> domains_;
  /// The domains' slices, as the Hello describes them (and the kAction
  /// capture record routes the suggestion through).
  std::vector<ActionSlice> slices_;
  capture::WireLogWriter* capture_ = nullptr;
  PayloadRecycler payload_recycler_;
  std::unique_ptr<net::Endpoint> endpoint_;

  std::uint32_t fingerprint_ = 0;
  std::size_t total_train_steps_ = 0;
  /// Frames that could not even be queued because the link was already
  /// dead (the endpoint's own counter covers shed-while-alive).
  std::uint64_t dead_drops_ = 0;

  /// Recycled broadcast stash: slots grow once, values keep capacity.
  struct PendingBroadcast {
    std::size_t domain = 0;
    std::vector<double> values;
  };
  std::vector<PendingBroadcast> stash_;
  std::size_t stash_count_ = 0;
  std::vector<std::uint8_t> payload_scratch_;
};

}  // namespace capes::core
