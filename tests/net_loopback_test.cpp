// Loopback integration tests for the dadu_net stack: a real IkServer
// on an ephemeral 127.0.0.1 port, real IkClient connections, real
// solves underneath.  Covers the acceptance criteria of the serving
// front-end: bit-identical round trips, burst coalescing under
// pipelined load, malformed-frame isolation, slow-reader backpressure,
// and graceful drain under load.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "dadu/kinematics/presets.hpp"
#include "dadu/net/ik_client.hpp"
#include "dadu/net/ik_server.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/workload/targets.hpp"
#include "one_spec_router.hpp"
#include "pipelined_load.hpp"

namespace dadu::net {
namespace {

using service::IkService;
using service::Request;
using service::Response;
using service::ResponseStatus;

constexpr int kDof = 6;

service::SolverFactory factoryFor(const kin::Chain& chain) {
  return [chain] { return ik::makeSolver("quick-ik", chain, {}); };
}

/// Seed cache off: determinism across instances depends on every
/// solve starting from exactly the request's seed.
service::ServiceConfig serviceConfig(std::size_t workers = 2) {
  service::ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = 256;
  config.enable_seed_cache = false;
  return config;
}

std::unique_ptr<IkService> makeService(const kin::Chain& chain) {
  return std::make_unique<IkService>(factoryFor(chain), serviceConfig());
}

Request makeRequest(const kin::Chain& chain, std::uint32_t index) {
  const auto task = workload::generateTask(chain, index);
  Request request;
  request.target = task.target;
  request.seed = task.seed;
  request.use_seed_cache = false;
  return request;
}

bool bitIdentical(const linalg::VecX& a, const linalg::VecX& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// Raw blocking TCP connection for protocol-abuse tests (the IkClient
/// refuses to send malformed bytes, so we go under it).
struct RawConn {
  int fd = -1;
  explicit RawConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void send(const void* data, std::size_t len) const {
    ASSERT_EQ(::send(fd, data, len, MSG_NOSIGNAL),
              static_cast<ssize_t>(len));
  }
  /// True once the server closed its end (recv() returns 0 or reset).
  bool awaitClose(int timeout_ms = 2000) const {
    timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    char buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n == 0) return true;   // orderly close
      if (n < 0) return errno == ECONNRESET;  // reset also counts
    }
  }
};

struct Loopback {
  kin::Chain chain = kin::makeSerpentine(kDof);
  test_support::OneSpecRouter stack;
  std::unique_ptr<IkServer> server;

  explicit Loopback(ServerConfig config = {}, std::size_t workers = 2,
                    std::uint32_t spec_id = 0)
      : stack(chain, serviceConfig(workers), spec_id) {
    server = std::make_unique<IkServer>(*stack.router, config);
    server->start();
  }
  IkClient client(ClientConfig config = {}) {
    IkClient c;
    c.connect("127.0.0.1", server->port(), config);
    return c;
  }
};

// -------------------------------------------------- round-trip fidelity

TEST(NetLoopbackTest, RoundTripIsBitIdenticalToInProcessSolve) {
  // Two *separate* services with identical factories: solver RNG state
  // advances per solve on an instance, so the reference must run on a
  // fresh service, not the served one.
  Loopback net;
  auto reference = makeService(net.chain);

  auto client = net.client();
  for (std::uint32_t i = 0; i < 8; ++i) {
    const Request request = makeRequest(net.chain, i);
    const Response over_wire = client.call(request);
    const Response in_process = reference->submit(request).get();

    ASSERT_EQ(over_wire.status, ResponseStatus::kSolved) << "request " << i;
    EXPECT_EQ(over_wire.result.status, in_process.result.status);
    EXPECT_EQ(over_wire.result.iterations, in_process.result.iterations);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(over_wire.result.error),
              std::bit_cast<std::uint64_t>(in_process.result.error));
    EXPECT_TRUE(bitIdentical(over_wire.result.theta, in_process.result.theta))
        << "request " << i;
  }
  EXPECT_EQ(net.server->stats().responses_sent, 8u);
}

TEST(NetLoopbackTest, PipelinedRepliesMatchByIdInAnyOrder) {
  Loopback net({}, /*workers=*/4);
  auto client = net.client();

  constexpr int kPipelined = 16;
  std::vector<std::uint64_t> ids;
  std::vector<Request> requests;
  for (int i = 0; i < kPipelined; ++i) {
    requests.push_back(makeRequest(net.chain, static_cast<std::uint32_t>(i)));
    ids.push_back(client.sendRequest(requests.back()));
  }
  // Collect in reverse submission order to force the stray buffer.
  auto reference = makeService(net.chain);
  for (int i = kPipelined - 1; i >= 0; --i) {
    const ClientReply reply = client.waitFor(ids[static_cast<std::size_t>(i)]);
    ASSERT_EQ(reply.type, MsgType::kResponse);
    const Response got = toServiceResponse(reply.response);
    const Response expected =
        reference->submit(requests[static_cast<std::size_t>(i)]).get();
    EXPECT_TRUE(bitIdentical(got.result.theta, expected.result.theta))
        << "request " << i;
  }
}

TEST(NetLoopbackTest, PipelinedLoadCoalescesIntoBursts) {
  // 8 connections x 8 pipelined requests against one lane with 16-lane
  // bursts and a 100 us linger: every request is solved exactly once,
  // and queue coalescing engages (mean burst occupancy > 1).
  const kin::Chain chain = kin::makeSerpentine(12);
  service::ServiceConfig config = serviceConfig();
  config.max_batch = 16;
  config.batch_wait_us = 100;
  test_support::OneSpecRouter stack(chain, config);
  IkServer server(*stack.router);
  server.start();
  EXPECT_EQ(test_support::drivePipelinedLoad(server.port(), chain, 8, 8, 64),
            512u);
  server.stop();
  stack.router->stop();
  EXPECT_GT(stack.service().stats().meanBatchOccupancy(), 1.0);
}

// -------------------------------------------------------- abuse / limits

TEST(NetLoopbackTest, MalformedFrameClosesOnlyThatConnection) {
  Loopback net;
  auto good = net.client();

  {
    RawConn bad(net.server->port());
    const std::uint8_t garbage[] = {0x10, 0x00, 0x00, 0x00, 0xde, 0xad,
                                    0xbe, 0xef, 0x00, 0x00, 0x00, 0x00,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                    0x00, 0x00};
    bad.send(garbage, sizeof garbage);
    EXPECT_TRUE(bad.awaitClose());
  }

  // The well-behaved connection still round-trips afterwards.
  const Response r = good.call(makeRequest(net.chain, 0));
  EXPECT_EQ(r.status, ResponseStatus::kSolved);
  const NetStats stats = net.server->stats();
  EXPECT_GE(stats.malformed_frames, 1u);
  EXPECT_GE(stats.closed_protocol, 1u);
}

TEST(NetLoopbackTest, TruncatedFrameThenEofIsJustAPeerClose) {
  Loopback net;
  {
    RawConn conn(net.server->port());
    // First half of a valid request frame, then hang up.
    std::vector<std::uint8_t> bytes;
    WireRequest request;
    request.id = 7;
    encodeRequest(request, bytes);
    conn.send(bytes.data(), bytes.size() / 2);
  }
  // Server must register the close without crashing or mis-dispatching.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (net.server->stats().closed_by_peer == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const NetStats stats = net.server->stats();
  EXPECT_EQ(stats.closed_by_peer, 1u);
  EXPECT_EQ(stats.malformed_frames, 0u);
  EXPECT_EQ(stats.requests_dispatched, 0u);

  // And keeps serving.
  auto client = net.client();
  EXPECT_EQ(client.call(makeRequest(net.chain, 1)).status,
            ResponseStatus::kSolved);
}

TEST(NetLoopbackTest, OversizedDeclaredFrameIsRejectedImmediately) {
  ServerConfig config;
  config.max_frame_bytes = 256;
  Loopback net(config);
  RawConn conn(net.server->port());
  // Declare a 1 MiB payload: only 4 bytes on the wire, yet the server
  // must close without waiting for the rest.
  const std::uint8_t prefix[] = {0x00, 0x00, 0x10, 0x00};
  conn.send(prefix, sizeof prefix);
  EXPECT_TRUE(conn.awaitClose());
  EXPECT_GE(net.server->stats().malformed_frames, 1u);
}

TEST(NetLoopbackTest, UnsupportedVersionGetsErrorFrameThenClose) {
  Loopback net;
  RawConn conn(net.server->port());
  std::vector<std::uint8_t> bytes;
  WireRequest request;
  request.id = 31337;
  encodeRequest(request, bytes);
  bytes[4] = kWireVersion + 1;
  conn.send(bytes.data(), bytes.size());

  // The server answers with a kError frame carrying our id, then closes.
  std::vector<std::uint8_t> received;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    received.insert(received.end(), buf, buf + n);
  }
  DecodedFrame frame;
  ASSERT_EQ(decodeFrame(received.data(), received.size(),
                        kDefaultMaxFrameBytes, frame),
            DecodeStatus::kOk);
  ASSERT_EQ(frame.type, MsgType::kError);
  EXPECT_EQ(frame.error.id, 31337u);
  EXPECT_EQ(frame.error.code, WireErrorCode::kUnsupportedVersion);
  EXPECT_GE(net.server->stats().errors_sent, 1u);
}

TEST(NetLoopbackTest, WrongSpecIdGetsUnknownSpecError) {
  Loopback net({}, 2, /*spec_id=*/5);  // the router's only spec is id 5
  ClientConfig client_config;
  client_config.spec_id = 9;  // not what the server serves
  auto client = net.client(client_config);
  try {
    client.call(makeRequest(net.chain, 0));
    FAIL() << "expected WireErrorException";
  } catch (const WireErrorException& e) {
    EXPECT_EQ(e.error().code, WireErrorCode::kUnknownSpec);
  }
  // The connection survives a spec error — fix the id and retry.
  client_config.spec_id = 5;
  auto fixed = net.client(client_config);
  EXPECT_EQ(fixed.call(makeRequest(net.chain, 0)).status,
            ResponseStatus::kSolved);
}

TEST(NetLoopbackTest, ConnectionLimitRejectsExtras) {
  ServerConfig config;
  config.max_connections = 2;
  Loopback net(config);
  auto a = net.client();
  auto b = net.client();
  // A third connection is accepted then immediately closed.
  RawConn extra(net.server->port());
  EXPECT_TRUE(extra.awaitClose());
  EXPECT_GE(net.server->stats().connections_rejected_limit, 1u);
  // The two within the limit still work.
  EXPECT_EQ(a.call(makeRequest(net.chain, 0)).status,
            ResponseStatus::kSolved);
  EXPECT_EQ(b.call(makeRequest(net.chain, 1)).status,
            ResponseStatus::kSolved);
}

TEST(NetLoopbackTest, IdleConnectionsAreSweptQuietOnesOnly) {
  ServerConfig config;
  config.idle_timeout_ms = 60.0;
  config.tick_interval_ms = 10.0;
  Loopback net(config);
  auto idle = net.client();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (net.server->stats().closed_idle == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(net.server->stats().closed_idle, 1u);
}

// ---------------------------------------------------------- backpressure

TEST(NetLoopbackTest, SlowReaderPausesReadsAndNothingIsLost) {
  ServerConfig config;
  // Smaller than a single encoded response: the FIRST completion that
  // lands while the client is not reading must trip the pause, no
  // matter how the loop interleaves completion batches with EPOLLOUT
  // flushes (a larger limit makes this timing-dependent).
  config.write_buffer_limit = 64;
  Loopback net(config, /*workers=*/4);
  auto client = net.client();

  // Pipeline far more requests than the limit's worth of responses
  // WITHOUT reading any replies: the server must pause this
  // connection's reads instead of buffering without bound.
  constexpr int kBurst = 64;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kBurst; ++i)
    ids.push_back(
        client.sendRequest(makeRequest(net.chain, static_cast<std::uint32_t>(i))));

  // Now read everything; the pause must release as the buffer drains.
  int responses = 0;
  for (const std::uint64_t id : ids) {
    const ClientReply reply = client.waitFor(id);
    ASSERT_EQ(reply.type, MsgType::kResponse);
    ++responses;
  }
  EXPECT_EQ(responses, kBurst);
  const NetStats stats = net.server->stats();
  EXPECT_GE(stats.read_pauses, 1u);
  EXPECT_EQ(stats.requests_completed, static_cast<std::uint64_t>(kBurst));
}

// --------------------------------------------------------------- drain

TEST(NetLoopbackTest, DrainUnderLoadAnswersEveryAcceptedRequest) {
  Loopback net({}, /*workers=*/4);

  constexpr int kClients = 4;
  std::atomic<int> solved{0}, shed{0}, other{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = net.client();
      while (!go.load()) std::this_thread::yield();
      for (std::uint32_t i = 0; i < 32; ++i) {
        try {
          const Response r =
              client.call(makeRequest(net.chain, i + 100u * c));
          if (r.status == ResponseStatus::kSolved)
            solved.fetch_add(1);
          else
            other.fetch_add(1);
        } catch (const WireErrorException& e) {
          // Draining servers refuse new requests with a clean error.
          EXPECT_EQ(e.error().code, WireErrorCode::kShuttingDown);
          shed.fetch_add(1);
          break;
        } catch (const std::exception&) {
          // Connection torn down after the drain finished.
          break;
        }
      }
    });
  }
  go.store(true);
  // Let some traffic through, then drain mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  net.server->stop();
  for (auto& t : threads) t.join();

  EXPECT_GT(solved.load(), 0);
  const NetStats stats = net.server->stats();
  // Every request the server dispatched came back out.
  EXPECT_EQ(stats.requests_completed, stats.requests_dispatched);
  EXPECT_EQ(stats.responses_sent,
            static_cast<std::uint64_t>(solved.load() + other.load()));
  EXPECT_EQ(stats.shed_draining, static_cast<std::uint64_t>(shed.load()));
  EXPECT_EQ(stats.connections_active, 0u);
}

TEST(NetLoopbackTest, StopIsIdempotentAndServerRestartsCleanlyElsewhere) {
  Loopback net;
  auto client = net.client();
  EXPECT_EQ(client.call(makeRequest(net.chain, 0)).status,
            ResponseStatus::kSolved);
  net.server->stop();
  net.server->stop();  // second stop is a no-op
  EXPECT_FALSE(net.server->running());

  // A fresh server over the same router keeps working.
  IkServer second(*net.stack.router, {});
  second.start();
  IkClient again;
  again.connect("127.0.0.1", second.port());
  EXPECT_EQ(again.call(makeRequest(net.chain, 1)).status,
            ResponseStatus::kSolved);
  second.stop();
}

}  // namespace
}  // namespace dadu::net
