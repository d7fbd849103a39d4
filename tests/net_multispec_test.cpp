// Multi-robot serving over real TCP: one IkServer fronting a
// SpecRouter with three robots.  Covers:
//   - requests route by wire spec_id to the right chain (theta DOF);
//   - a wrong-spec request fails alone — kUnknownSpec for that id,
//     every other pipelined request answered, connection survives —
//     and the dadu_net_spec_mismatch counter increments;
//   - routing through one multi-spec server is bit-identical to
//     solving each request directly with the spec's solver.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "dadu/kinematics/presets.hpp"
#include "dadu/net/ik_client.hpp"
#include "dadu/net/ik_server.hpp"
#include "dadu/net/net_stats.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/registry/spec_router.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::net {
namespace {

using registry::RobotSpec;
using registry::RobotSpecRegistry;
using registry::SpecRouter;

const std::vector<std::size_t> kDofs = {4, 6, 9};

RobotSpecRegistry makeRegistry() {
  RobotSpecRegistry reg;
  for (std::size_t i = 0; i < kDofs.size(); ++i) {
    RobotSpec spec;
    spec.id = static_cast<std::uint32_t>(i);
    spec.name = "serp" + std::to_string(kDofs[i]);
    spec.chain_spec = "serpentine:" + std::to_string(kDofs[i]);
    spec.chain = kin::makeSerpentine(kDofs[i]);
    reg.add(std::move(spec));
  }
  return reg;
}

service::Request requestFor(const kin::Chain& chain, std::uint32_t index) {
  const auto task = workload::generateTask(chain, static_cast<int>(index));
  service::Request request;
  request.target = task.target;
  request.seed = task.seed;
  request.use_seed_cache = false;
  return request;
}

bool bitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// One multi-spec server on an ephemeral loopback port.
struct MultiLoopback {
  RobotSpecRegistry reg = makeRegistry();
  std::unique_ptr<SpecRouter> router;
  std::unique_ptr<IkServer> server;

  MultiLoopback() {
    registry::RouterConfig config;
    config.base.workers = 1;
    config.base.enable_seed_cache = false;
    router = std::make_unique<SpecRouter>(reg, config);
    server = std::make_unique<IkServer>(*router);
    server->start();
  }
  IkClient client() {
    IkClient c;
    c.connect("127.0.0.1", server->port());
    return c;
  }
};

TEST(NetMultiSpec, OneServerRoutesThreeSpecsByWireSpecId) {
  MultiLoopback loop;
  IkClient client = loop.client();
  for (const RobotSpec& spec : loop.reg.specs()) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      const service::Response response =
          client.call(requestFor(spec.chain, i), spec.id);
      ASSERT_EQ(response.status, service::ResponseStatus::kSolved);
      // The DOF of the solution is the routing witness.
      EXPECT_EQ(response.result.theta.size(), spec.chain.dof())
          << "spec " << spec.id;
    }
  }
  for (const auto& lane : loop.router->perSpecStats())
    EXPECT_EQ(lane.stats.submitted, 4u) << lane.spec->name;
  EXPECT_EQ(loop.server->stats().spec_mismatch, 0u);
}

TEST(NetMultiSpec, WrongSpecFailsAloneAndConnectionSurvives) {
  MultiLoopback loop;
  IkClient client = loop.client();
  const kin::Chain& chain0 = loop.reg.specs()[0].chain;
  const kin::Chain& chain1 = loop.reg.specs()[1].chain;

  // Pipeline good / bad / good on ONE connection.
  const std::uint64_t ok_a = client.sendRequest(requestFor(chain0, 0), 0);
  const std::uint64_t bad = client.sendRequest(requestFor(chain0, 1), 99);
  const std::uint64_t ok_b = client.sendRequest(requestFor(chain1, 2), 1);

  const ClientReply reply_bad = client.waitFor(bad);
  ASSERT_EQ(reply_bad.type, MsgType::kError);
  EXPECT_EQ(reply_bad.error.code, WireErrorCode::kUnknownSpec);

  // Only that request errored; its neighbours solved on their specs.
  const ClientReply reply_a = client.waitFor(ok_a);
  const ClientReply reply_b = client.waitFor(ok_b);
  ASSERT_EQ(reply_a.type, MsgType::kResponse);
  ASSERT_EQ(reply_b.type, MsgType::kResponse);
  EXPECT_EQ(reply_a.response.theta.size(), chain0.dof());
  EXPECT_EQ(reply_b.response.theta.size(), chain1.dof());

  // The connection is still serviceable after the error...
  const service::Response again = client.call(requestFor(chain0, 3), 0);
  EXPECT_EQ(again.status, service::ResponseStatus::kSolved);

  // ...and the operator can see the mismatch.
  const NetStats stats = loop.server->stats();
  EXPECT_EQ(stats.spec_mismatch, 1u);
  const obs::MetricsSnapshot snap = toMetricsSnapshot(stats);
  bool found = false;
  for (const auto& c : snap.counters)
    if (c.name == "dadu_net_spec_mismatch") {
      found = true;
      EXPECT_EQ(c.value, 1u);
    }
  EXPECT_TRUE(found);
}

TEST(NetMultiSpec, RoutedSolvesAreBitIdenticalToDedicatedServers) {
  // The oracle is what a dedicated deployment of each spec computes: a
  // direct QuickIkSolver::solve on the same (target, seed).
  MultiLoopback loop;
  IkClient multi = loop.client();
  for (const RobotSpec& spec : loop.reg.specs()) {
    ik::QuickIkSolver direct(spec.chain, spec.options);
    for (std::uint32_t i = 0; i < 6; ++i) {
      const service::Request request = requestFor(spec.chain, i);
      const service::Response routed = multi.call(request, spec.id);
      const ik::SolveResult expected =
          direct.solve(request.target, request.seed);
      ASSERT_EQ(routed.status, service::ResponseStatus::kSolved);
      EXPECT_EQ(routed.result.status, expected.status);
      EXPECT_EQ(routed.result.iterations, expected.iterations);
      std::vector<double> a(routed.result.theta.size());
      std::vector<double> b(expected.theta.size());
      for (std::size_t j = 0; j < a.size(); ++j) a[j] = routed.result.theta[j];
      for (std::size_t j = 0; j < b.size(); ++j) b[j] = expected.theta[j];
      EXPECT_TRUE(bitIdentical(a, b)) << spec.name << " task " << i;
    }
  }
}

}  // namespace
}  // namespace dadu::net
