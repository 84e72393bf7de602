#include "core/brain_service.hpp"

#include <memory>
#include <vector>

#include "core/brain.hpp"
#include "core/remote_brain.hpp"
#include "util/frame.hpp"
#include "util/logging.hpp"

namespace capes::core {

namespace {

/// One client's brain: its daemon mirrors every domain's parameter
/// vector, so vetoes are checked against exactly the values the agent
/// side holds (both sides apply the same absolute broadcasts).
struct Session {
  explicit Session(const HelloPayload& hello)
      : brain(brain_options_from_meta(hello.meta), hello.domains) {}
  Brain brain;
  std::vector<std::uint8_t> broadcast_scratch;
};

std::unique_ptr<Session> build_session(const HelloPayload& hello,
                                       std::string* error) {
  const capture::TraceMeta& meta = hello.meta;
  if (meta.num_nodes == 0 || meta.pis_per_node == 0 || meta.num_actions == 0 ||
      hello.domains.empty()) {
    *error = "Hello describes an empty topology";
    return nullptr;
  }
  std::size_t slice_actions = 0;
  for (const ActionSlice& d : hello.domains) {
    slice_actions += 2 * d.parameters.size();
  }
  if (slice_actions + 1 != meta.num_actions) {
    *error = "Hello action-space layout disagrees with its meta";
    return nullptr;
  }
  return std::make_unique<Session>(hello);
}

/// One brain step closing the client's tick barrier: the checked
/// broadcast (if an action applied), then kFrameActionsDone.
void handle_tick_done(Session& session, net::Endpoint& endpoint,
                      std::int64_t t, std::uint8_t mode) {
  const TickOutcome out = session.brain.tick(t, static_cast<RunPhase>(mode));
  if (out.recorded != 0) {
    const InterfaceDaemon& daemon = session.brain.daemon();
    const std::size_t slice = route_action(daemon.slices(), out.recorded).slice;
    const std::vector<double>& values = *daemon.slices()[slice].values;
    session.broadcast_scratch.resize(values.size() * 8);
    for (std::size_t i = 0; i < values.size(); ++i) {
      util::put_le_f64(session.broadcast_scratch.data() + 8 * i, values[i]);
    }
    endpoint.send(frame_type(capture::RecordType::kBroadcast), t,
                  kActionTopicBase + slice, slice,
                  session.broadcast_scratch.data(),
                  session.broadcast_scratch.size());
  }
  std::uint8_t done[20];
  util::put_le32(done, static_cast<std::uint32_t>(out.suggested));
  util::put_le32(done + 4, static_cast<std::uint32_t>(out.recorded));
  util::put_le32(done + 8, static_cast<std::uint32_t>(out.train_steps));
  util::put_le64(done + 12, static_cast<std::uint64_t>(out.total_train_steps));
  endpoint.send(kFrameActionsDone, t, 0, 0, done, sizeof(done));
}

}  // namespace

BrainServiceReport BrainService::serve(net::Endpoint& endpoint) {
  BrainServiceReport report;
  std::unique_ptr<Session> session;
  bool stop = false;
  while (!stop) {
    net::InSlot* slot = endpoint.recv();
    if (slot == nullptr) break;  // EOF / error / idle timeout: client gone
    const net::Frame& frame = slot->frame;
    switch (frame.type) {
      case kFrameHello: {
        const auto hello = decode_hello(frame.payload);
        if (!hello) {
          report.error = "undecodable Hello (protocol-version mismatch?)";
          stop = true;
          break;
        }
        std::string error;
        session = build_session(*hello, &error);
        if (session == nullptr) {
          report.error = error;
          stop = true;
          break;
        }
        report.hello_ok = true;
        report.num_domains = session->brain.daemon().num_shards();
        std::uint8_t ack[8];
        util::put_le32(ack, kWireProtoVersion);
        util::put_le32(ack + 4, session->brain.engine().weights_fingerprint());
        endpoint.send(kFrameHelloAck, 0, 0, 0, ack, sizeof(ack));
        break;
      }
      case kFrameTickDone:
        if (session != nullptr && !frame.payload.empty()) {
          handle_tick_done(*session, endpoint, frame.tick, frame.payload[0]);
          ++report.ticks;
        }
        break;
      case kFrameParamsReset:
        if (session != nullptr) {
          session->brain.daemon().reset_parameter_values();
        }
        break;
      case kFrameBye:
        report.clean_shutdown = true;
        stop = true;
        break;
      default:
        if (frame.type == frame_type(capture::RecordType::kStatus)) {
          if (session != nullptr) {
            ++report.status_records;
            session->brain.daemon().on_status_message(frame.payload);
          }
        } else if (frame.type == frame_type(capture::RecordType::kReward)) {
          if (session != nullptr && frame.payload.size() >= 8) {
            ++report.reward_records;
            session->brain.daemon().on_reward(
                frame.tick, util::get_le_f64(frame.payload.data()));
          }
        } else if (frame.type ==
                   frame_type(capture::RecordType::kWorkloadChange)) {
          if (session != nullptr) {
            session->brain.engine().notify_workload_change();
          }
        } else if (frame.type == frame_type(capture::RecordType::kPhaseEnd)) {
          if (session != nullptr) {
            // The remote drain_learner(): everything the phase trained is
            // visible in the fingerprint the ack carries.
            session->brain.engine().drain_learner();
            std::uint8_t ack[12];
            util::put_le32(ack, session->brain.engine().weights_fingerprint());
            util::put_le64(ack + 4, static_cast<std::uint64_t>(
                                        session->brain.total_train_steps()));
            endpoint.send(kFramePhaseEndAck, frame.tick, 0, 0, ack,
                          sizeof(ack));
          }
        }
        // kPhaseBegin and unknown types: no service-side state to touch.
        break;
    }
    endpoint.recycle(slot);
  }
  if (session != nullptr) {
    const InterfaceDaemon& daemon = session->brain.daemon();
    report.decode_errors = daemon.decode_errors();
    report.actions_broadcast = daemon.actions_broadcast();
    report.actions_vetoed = daemon.actions_vetoed();
    report.train_steps = session->brain.total_train_steps();
    report.fingerprint = session->brain.engine().weights_fingerprint();
  }
  if (!report.error.empty()) {
    CAPES_LOG_WARN("braind") << "session aborted: " << report.error;
  }
  return report;
}

}  // namespace capes::core
