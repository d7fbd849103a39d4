// Chaos soak: client -> server -> service under a randomized fault
// plan.  The invariant under test is liveness accounting — every
// request submitted by a client thread ends in EXACTLY one of
// {solved, rejected, deadline-exceeded, client-side error}; nothing
// hangs and nothing is double-delivered — plus the conservation laws
// on both sides of the wire:
//
//   service:  submitted == solved + every reject bucket + deadlines
//             + internal errors                  (ServiceStats::accounted)
//   server:   dispatched == completed + orphaned
//
// The plan seed comes from DADU_CHAOS_SEED (default fixed, so the CI
// matrix run is reproducible) and is printed either way — reproducing
// any failure is `DADU_CHAOS_SEED=<seed> ./chaos_soak_test`.  Request
// volume comes from DADU_CHAOS_REQUESTS (default 10000, split across
// 4 client threads).
//
// Also here: the net-robustness regressions from the same issue — a
// client killed mid-write (RST with a half-sent frame) must not take
// the server down, and completions that outlive a drain timeout must
// land in dadu_net_orphaned_completions instead of vanishing.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dadu/fault/fault.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/net/ik_client.hpp"
#include "dadu/net/ik_server.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/workload/targets.hpp"
#include "one_spec_router.hpp"

namespace dadu::net {
namespace {

using service::IkService;
using service::Request;
using service::Response;
using service::ResponseStatus;

constexpr int kDof = 6;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (!value || !*value) return fallback;
  return std::strtoull(value, nullptr, 0);
}

service::ServiceConfig withWorkers(service::ServiceConfig config) {
  config.workers = config.workers ? config.workers : 3;
  return config;
}

struct Harness {
  kin::Chain chain = kin::makeSerpentine(kDof);
  test_support::OneSpecRouter stack;
  std::unique_ptr<IkServer> server;

  explicit Harness(service::ServiceConfig svc_config = {},
                   ServerConfig srv_config = {})
      : stack(chain, withWorkers(svc_config)) {
    server = std::make_unique<IkServer>(*stack.router, srv_config);
    server->start();
  }
  IkService& service() { return stack.service(); }
  IkClient client(ClientConfig config = {}) {
    IkClient c;
    c.connect("127.0.0.1", server->port(), config);
    return c;
  }
};

/// Build the randomized plan: the rule set is fixed (every injection
/// point in the stack gets exercised), the probabilities are scaled
/// per-seed so different seeds explore different failure mixes.
fault::FaultPlan chaosPlan(std::uint64_t seed) {
  std::uint64_t rng = seed;
  const auto p = [&](double base) {
    // base/2 .. 2*base, deterministic in the seed.
    const double u =
        static_cast<double>(splitmix64(rng) >> 11) * 0x1p-53;
    return base * (0.5 + 1.5 * u);
  };
  fault::FaultPlan plan;
  plan.seed = seed;
  // Service layer: worker stalls, slow solves, solver throws, and
  // poisoned warm-start seeds.
  plan.delayAt("service.worker.stall", 0.5, {.probability = p(0.01)});
  plan.delayAt("service.worker.solve", 1.0, {.probability = p(0.01)});
  plan.errorAt("service.worker.solve", "chaos: injected solver fault",
               {.probability = p(0.005)});
  plan.corruptAt("service.seed_cache.seed", {.probability = p(0.05)});
  // Server socket path: short reads/writes, spurious EINTR, corrupted
  // inbound bytes, the occasional hard connection drop.
  plan.eintrAt("net.server.read", {.probability = p(0.02)});
  plan.truncateAt("net.server.read", 3, {.probability = p(0.02)});
  plan.corruptAt("net.server.read", {.probability = p(0.001)});
  plan.dropAt("net.server.read", {.probability = p(0.001)});
  plan.eintrAt("net.server.write", {.probability = p(0.02)});
  plan.truncateAt("net.server.write", 3, {.probability = p(0.02)});
  // Client socket path: same menu from the other side.
  plan.eintrAt("net.client.write", {.probability = p(0.02)});
  plan.truncateAt("net.client.write", 2, {.probability = p(0.02)});
  plan.corruptAt("net.client.write", {.probability = p(0.001)});
  plan.dropAt("net.client.write", {.probability = p(0.001)});
  plan.eintrAt("net.client.read", {.probability = p(0.02)});
  plan.truncateAt("net.client.read", 2, {.probability = p(0.02)});
  plan.dropAt("net.client.read", {.probability = p(0.001)});
  return plan;
}

// Body of the exactly-once soak, shared by the bursts-of-one and
// coalescing variants: the coalescer must preserve the
// exactly-one-outcome and conservation invariants under the same
// randomized fault plan.
void runExactlyOnceSoak(std::size_t max_batch, std::uint32_t batch_wait_us) {
  const std::uint64_t seed = envU64("DADU_CHAOS_SEED", 0xDADBull);
  const std::uint64_t total = envU64("DADU_CHAOS_REQUESTS", 10'000);
  constexpr int kThreads = 4;
  const std::uint64_t per_thread = (total + kThreads - 1) / kThreads;
  std::cout << "[ chaos  ] seed=" << seed << " requests=" << total
            << " (reproduce: DADU_CHAOS_SEED=" << seed << ")" << std::endl;
  ::testing::Test::RecordProperty("chaos_seed", std::to_string(seed));

  service::ServiceConfig svc_config;
  svc_config.queue_capacity = 64;
  svc_config.enable_seed_cache = true;
  svc_config.breaker.enabled = true;
  svc_config.breaker.shed_queue_depth = 16;
  svc_config.breaker.trip_queue_depth = 48;
  svc_config.breaker.trip_p99_ms = 250.0;
  svc_config.breaker.open_ms = 10.0;
  svc_config.breaker.half_open_probes = 2;
  svc_config.max_batch = max_batch;
  svc_config.batch_wait_us = batch_wait_us;
  Harness h(svc_config);

  fault::ScopedFaultPlan plan(chaosPlan(seed));

  std::atomic<std::uint64_t> solved{0}, rejected{0}, deadline{0}, errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientConfig config;
      config.io_timeout_ms = 300.0;  // bounds corrupted-frame stalls
      config.retry.max_attempts = 5;
      config.retry.base_backoff_ms = 0.5;
      config.retry.max_backoff_ms = 5.0;
      config.retry.budget = 1u << 20;
      config.retry.seed = seed ^ static_cast<std::uint64_t>(t);
      IkClient client = h.client(config);
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        const auto task = workload::generateTask(
            h.chain, static_cast<std::uint32_t>(t * per_thread + i));
        Request request;
        request.target = task.target;
        request.seed = task.seed;
        request.use_seed_cache = (i % 3) == 0;
        if ((i % 7) == 0) request.deadline_ms = 50.0;
        if ((i % 13) == 0) request.priority = service::Priority::kLow;
        try {
          const Response r = client.callWithRetry(request);
          switch (r.status) {
            case ResponseStatus::kSolved: solved++; break;
            case ResponseStatus::kRejected: rejected++; break;
            case ResponseStatus::kDeadlineExceeded: deadline++; break;
          }
        } catch (const std::exception&) {
          errors++;  // terminal client-side failure is a valid outcome
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // The exactly-once invariant: every submitted request resolved to
  // one and only one outcome — no hangs (we got here), no losses.
  EXPECT_EQ(solved + rejected + deadline + errors,
            per_thread * kThreads);
  EXPECT_GT(solved.load(), 0u);
  std::cout << "[ chaos  ] solved=" << solved << " rejected=" << rejected
            << " deadline=" << deadline << " client_errors=" << errors
            << " injected_fires="
            << fault::FaultInjector::global().totalFires() << std::endl;

  // On the wire side after a full drain: every dispatched request
  // either completed back through the loop or was counted orphaned.
  h.server->stop();
  const NetStats net_stats = h.server->stats();
  EXPECT_EQ(net_stats.requests_dispatched,
            net_stats.requests_completed + net_stats.orphaned_completions);

  // Conservation on the service side, read only after both stops so no
  // request is still in flight (requests whose *client* gave up keep
  // running server-side until the drain finishes them): every submit
  // landed in exactly one terminal counter bucket.
  h.service().stop();
  const service::ServiceStats svc_stats = h.service().stats();
  EXPECT_EQ(svc_stats.submitted, svc_stats.accounted());

  // Every dispatch is a burst (of one when max_batch is 1), and every
  // lane that entered a counted burst landed in exactly one of its
  // terminal buckets.
  EXPECT_GT(svc_stats.batches, 0u);
  EXPECT_EQ(svc_stats.batched_lanes,
            svc_stats.solved + svc_stats.deadline_expired +
                svc_stats.internal_errors);
  if (max_batch == 1) {
    EXPECT_EQ(svc_stats.batches, svc_stats.batched_lanes);
  }
}

TEST(ChaosSoak, EveryRequestGetsExactlyOneOutcome) {
  runExactlyOnceSoak(1, 0);
}

TEST(ChaosSoak, EveryRequestGetsExactlyOneOutcomeBatched) {
  runExactlyOnceSoak(8, 200);
}

/// Deterministic heavy-interference run: EINTR and 1-to-3-byte
/// truncations on every socket op with probability 1/2 must only slow
/// the stream down, never corrupt it — all replies still arrive and
/// still match their request ids.
TEST(ChaosSoak, ShortIoAndEintrPreserveTheStream) {
  Harness h;
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.eintrAt("net.server.read", {.probability = 0.5});
  plan.truncateAt("net.server.read", 3, {.probability = 0.5});
  plan.eintrAt("net.server.write", {.probability = 0.5});
  plan.truncateAt("net.server.write", 3, {.probability = 0.5});
  plan.eintrAt("net.client.write", {.probability = 0.5});
  plan.truncateAt("net.client.write", 1, {.probability = 0.5});
  plan.eintrAt("net.client.read", {.probability = 0.5});
  plan.truncateAt("net.client.read", 1, {.probability = 0.5});
  fault::ScopedFaultPlan armed(plan);

  IkClient client = h.client();
  // Pipeline a burst so truncated frames interleave, then collect.
  std::vector<std::uint64_t> ids;
  std::vector<Request> requests;
  for (std::uint32_t i = 0; i < 32; ++i) {
    const auto task = workload::generateTask(h.chain, i);
    Request request;
    request.target = task.target;
    request.seed = task.seed;
    request.use_seed_cache = false;
    requests.push_back(request);
    ids.push_back(client.sendRequest(request));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ClientReply reply = client.waitFor(ids[i]);
    ASSERT_EQ(reply.type, MsgType::kResponse) << i;
    EXPECT_EQ(reply.response.id, ids[i]);
    EXPECT_EQ(toServiceResponse(reply.response).status,
              ResponseStatus::kSolved);
  }
  EXPECT_GT(fault::FaultInjector::global().totalFires(), 0u);
}

// ------------------------------------------------ orphan accounting

TEST(ChaosSoak, LongSolveOutlivingDrainIsCountedOrphaned) {
  ServerConfig srv_config;
  srv_config.drain_timeout_ms = 50.0;  // far shorter than the solve
  Harness h({}, srv_config);

  fault::FaultPlan plan;
  plan.delayAt("service.worker.solve", 400.0, {.limit = 1});
  fault::ScopedFaultPlan armed(plan);

  IkClient client = h.client();
  const auto task = workload::generateTask(h.chain, 0);
  Request request;
  request.target = task.target;
  request.seed = task.seed;
  request.use_seed_cache = false;
  client.sendRequest(request);

  // Wait until a worker has actually picked the request up (submitted
  // and out of the queue — it is then inside the 400ms injected
  // delay), then stop: the 50ms drain gives up while the solve is
  // still running.  Condition-polled rather than a fixed sleep so a
  // slow dispatch can't race the stop.
  const auto pickup_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((h.service().stats().submitted == 0 || h.service().queueDepth() > 0) &&
         std::chrono::steady_clock::now() < pickup_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  h.server->stop();

  // The solve finishes into the dead sink; poll until the counter
  // reflects it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (h.server->stats().orphaned_completions == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(h.server->stats().orphaned_completions, 1u);

  // The merged metrics dump must expose it under the dadu_net prefix.
  bool exported = false;
  for (const auto& counter : h.server->metrics().counters)
    if (counter.name == "dadu_net_orphaned_completions")
      exported = counter.value >= 1;
  EXPECT_TRUE(exported);
}

TEST(ChaosSoak, CleanShutdownOrphansNothing) {
  Harness h;
  IkClient client = h.client();
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto task = workload::generateTask(h.chain, i);
    Request request;
    request.target = task.target;
    request.seed = task.seed;
    request.use_seed_cache = false;
    EXPECT_EQ(client.call(request).status, ResponseStatus::kSolved);
  }
  h.server->stop();
  const NetStats stats = h.server->stats();
  EXPECT_EQ(stats.orphaned_completions, 0u);
  EXPECT_EQ(stats.requests_dispatched, stats.requests_completed);
}

// ------------------------------------------- mid-write client death

TEST(NetRobustness, ClientKilledMidWriteLeavesServerServing) {
  Harness h;

  // Half a valid request frame, then an abrupt RST (SO_LINGER 0).
  {
    WireRequest wire;
    wire.id = 1;
    wire.spec_id = 0;
    wire.target[0] = 0.3;
    wire.target[1] = 0.2;
    wire.target[2] = 0.1;
    wire.seed.assign(kDof, 0.0);
    std::vector<std::uint8_t> frame;
    encodeRequest(wire, frame);

    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(h.server->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_EQ(::send(fd, frame.data(), frame.size() / 2, MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size() / 2));
    const linger abort_close{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close,
                 sizeof abort_close);
    ::close(fd);
  }

  // A second client that dies right after sending a FULL request: the
  // completion comes back to a dead connection and must be dropped
  // quietly (no SIGPIPE, no crash), not delivered or leaked.
  {
    IkClient doomed = h.client();
    const auto task = workload::generateTask(h.chain, 1);
    Request request;
    request.target = task.target;
    request.seed = task.seed;
    request.use_seed_cache = false;
    doomed.sendRequest(request);
    doomed.close();
  }

  // The server must still be fully alive for well-behaved clients.
  IkClient client = h.client();
  const auto task = workload::generateTask(h.chain, 2);
  Request request;
  request.target = task.target;
  request.seed = task.seed;
  request.use_seed_cache = false;
  const Response r = client.call(request);
  EXPECT_EQ(r.status, ResponseStatus::kSolved);
  EXPECT_TRUE(h.server->running());

  h.server->stop();
  const NetStats stats = h.server->stats();
  EXPECT_EQ(stats.requests_dispatched,
            stats.requests_completed + stats.orphaned_completions);
}

}  // namespace
}  // namespace dadu::net
