// Sim/live reply parity: the same scripted byte stream goes through a
// loopback IkServer and through the simulator's SimServer, both over a
// one-spec router with a real quick-ik solver, and every connection
// must get the same reply frames (queue_ms/solve_ms aside) and the
// same hang-up decision.  Both servers run one FrameDispatcher, so any
// drift in decode verdicts, routing, validation, error text or the
// internal-error mapping fails here.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dadu/fault/fault.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/net/buffer.hpp"
#include "dadu/net/ik_server.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/sim/sim_clock.hpp"
#include "dadu/sim/sim_executor.hpp"
#include "dadu/sim/sim_server.hpp"
#include "dadu/sim/transport.hpp"
#include "dadu/workload/targets.hpp"
#include "one_spec_router.hpp"

namespace dadu::net {
namespace {

constexpr int kDof = 6;

/// What one connection saw: its reply frames keyed by request id
/// (arrival order between an early error and a later solve is not part
/// of the contract), and whether the server hung up.
struct Replies {
  std::map<std::uint64_t, std::string> frames;
  bool closed = false;
};

/// A frame as comparable text; bit patterns for doubles.
std::string describe(const DecodedFrame& frame) {
  std::ostringstream out;
  if (frame.type == MsgType::kResponse) {
    const WireResponse& r = frame.response;
    out << "response st=" << int{r.status} << " rej=" << int{r.reject_reason}
        << " solver=" << int{r.solver_status}
        << " cache=" << r.seeded_from_cache << " it=" << r.iterations
        << " err=" << std::bit_cast<std::uint64_t>(r.error) << " theta=";
    for (const double v : r.theta) out << std::bit_cast<std::uint64_t>(v) << ',';
  } else if (frame.type == MsgType::kError) {
    out << "error code=" << static_cast<int>(frame.error.code) << " msg='"
        << frame.error.message << "'";
  } else {
    out << "unexpected request frame";
  }
  return out.str();
}

/// Decode every complete reply frame in `bytes` into `replies`.
void collect(const ByteBuffer& bytes, Replies& replies) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    DecodedFrame frame;
    if (decodeFrame(bytes.data() + at, bytes.size() - at,
                    kDefaultMaxFrameBytes, frame) != DecodeStatus::kOk)
      break;
    at += frame.consumed;
    const std::uint64_t id = frame.type == MsgType::kError ? frame.error.id
                                                           : frame.response.id;
    replies.frames[id] = describe(frame);
  }
}

std::size_t frameCount(const ByteBuffer& bytes) {
  Replies replies;
  collect(bytes, replies);
  return replies.frames.size();
}

service::ServiceConfig serviceConfig() {
  service::ServiceConfig config;
  config.workers = 1;  // FIFO: the solve fault hits the same request
  config.enable_seed_cache = false;
  return config;
}

/// service.worker.solve throws on its 2nd hit: the 2nd dispatched
/// request in the script.
fault::FaultPlan solveFaultPlan() {
  fault::FaultPlan plan;
  plan.seed = 1;
  plan.errorAt("service.worker.solve", "injected solver fault", {.nth = 2});
  return plan;
}

/// Through a real IkServer on a loopback socket.  Reads until the
/// server hangs up, or until `want` reply frames have arrived when the
/// connection is expected to stay open.
Replies liveReplies(const std::vector<std::uint8_t>& script, std::size_t want,
                    bool stays_open) {
  fault::ScopedFaultPlan armed(solveFaultPlan());
  test_support::OneSpecRouter stack(kin::makeSerpentine(kDof),
                                    serviceConfig());
  IkServer server(*stack.router);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::send(fd, script.data(), script.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(script.size()));
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

  Replies replies;
  ByteBuffer received;
  std::uint8_t chunk[4096];
  while (!stays_open || frameCount(received) < want) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      received.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    replies.closed = n == 0 || errno == ECONNRESET;
    EXPECT_TRUE(replies.closed) << "timed out waiting for replies";
    break;
  }
  ::close(fd);
  server.stop();
  collect(received, replies);
  return replies;
}

/// Through SimServer on a simulated pipe, under virtual time.
Replies simReplies(const std::vector<std::uint8_t>& script) {
  fault::ScopedFaultPlan armed(solveFaultPlan());
  sim::SimClock clock;
  sim::SimExecutor exec(clock, 1);
  service::ServiceConfig config = serviceConfig();
  config.clock = &clock;
  config.executor = &exec;
  test_support::OneSpecRouter stack(kin::makeSerpentine(kDof), config);
  sim::SimServer server(*stack.router, exec);

  Replies replies;
  ByteBuffer received;
  auto conn = std::make_shared<sim::SimConnection>(exec, sim::LinkConfig{}, 1);
  conn->onReceive(sim::Side::kClient,
                  [&](const std::uint8_t* data, std::size_t len) {
                    received.append(data, len);
                  });
  conn->onClose(sim::Side::kClient, [&] { replies.closed = true; });
  server.accept(conn);
  conn->send(sim::Side::kClient, script.data(), script.size());
  exec.drain();
  collect(received, replies);
  return replies;
}

WireRequest goodRequest(std::uint64_t id, int task_index) {
  const auto task =
      workload::generateTask(kin::makeSerpentine(kDof), task_index);
  WireRequest request;
  request.id = id;
  request.use_seed_cache = false;
  request.target[0] = task.target[0];
  request.target[1] = task.target[1];
  request.target[2] = task.target[2];
  request.seed.assign(task.seed.data(), task.seed.data() + task.seed.size());
  return request;
}

TEST(SimLiveParity, ScriptedStreamGetsIdenticalRepliesFromBothServers) {
  struct Script {
    const char* name;
    std::vector<std::uint8_t> bytes;
    std::size_t replies;  ///< frames the connection gets back
    bool stays_open;
  };
  std::vector<Script> scripts;

  // One connection, five requests, five answers; it stays open.
  {
    std::vector<std::uint8_t> bytes;
    encodeRequest(goodRequest(1, 0), bytes);
    WireRequest non_finite = goodRequest(2, 1);
    non_finite.target[1] = std::numeric_limits<double>::quiet_NaN();
    encodeRequest(non_finite, bytes);
    WireRequest negative_deadline = goodRequest(3, 2);
    negative_deadline.deadline_ms = -1.0;
    encodeRequest(negative_deadline, bytes);
    WireRequest unknown_spec = goodRequest(4, 3);
    unknown_spec.spec_id = 7;
    encodeRequest(unknown_spec, bytes);
    encodeRequest(goodRequest(5, 4), bytes);  // trips the solve fault
    scripts.push_back({"requests", std::move(bytes), 5, true});
  }
  // Protocol violations, one connection each.
  {
    std::vector<std::uint8_t> bytes;
    WireResponse response;
    response.id = 6;
    encodeResponse(response, bytes);  // clients must not send these
    scripts.push_back({"non-request frame", std::move(bytes), 0, false});
  }
  {
    std::vector<std::uint8_t> bytes;
    encodeRequest(goodRequest(7, 5), bytes);
    bytes[kLengthBytes] = kWireVersion + 1;
    scripts.push_back({"wrong version", std::move(bytes), 1, false});
  }
  // A 2 MiB length prefix, over the 1 MiB default cap.
  scripts.push_back(
      {"oversized length", {0x00, 0x00, 0x20, 0x00}, 0, false});

  for (const Script& script : scripts) {
    const Replies live =
        liveReplies(script.bytes, script.replies, script.stays_open);
    const Replies simulated = simReplies(script.bytes);
    EXPECT_EQ(live.frames.size(), script.replies) << script.name;
    EXPECT_EQ(live.closed, !script.stays_open) << script.name;
    EXPECT_EQ(live.frames, simulated.frames) << script.name;
    EXPECT_EQ(live.closed, simulated.closed) << script.name;
  }
}

}  // namespace
}  // namespace dadu::net
