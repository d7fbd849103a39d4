// dadu_registry tests: the multi-robot spec table and the SpecRouter's
// per-spec lanes.  The load-bearing claims:
//   - registration is strict (duplicate ids/names throw, unknown ids
//     resolve to nothing) so routing never silently shadows a robot;
//   - routing through the router is bit-identical to running the same
//     spec in its own single-spec IkService;
//   - per-spec seed caches are physically isolated (a hit in spec A
//     never seeds spec B);
//   - batched dispatch never puts requests from different specs into
//     one solveMany (every response's theta has its own spec's DOF);
//   - the aggregate/metrics views conserve what the lanes counted.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "dadu/kinematics/presets.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/registry/spec_router.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::registry {
namespace {

using service::Request;
using service::Response;
using service::ResponseStatus;

Request requestFor(const kin::Chain& chain, std::uint32_t index,
                   bool use_cache = false) {
  const auto task = workload::generateTask(chain, static_cast<int>(index));
  Request request;
  request.target = task.target;
  request.seed = task.seed;
  request.use_seed_cache = use_cache;
  return request;
}

bool bitIdentical(const linalg::VecX& a, const linalg::VecX& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// Registry with `dofs.size()` serpentine specs, ids 0,1,...
RobotSpecRegistry makeRegistry(const std::vector<std::size_t>& dofs) {
  RobotSpecRegistry reg;
  for (std::size_t i = 0; i < dofs.size(); ++i) {
    RobotSpec spec;
    spec.id = static_cast<std::uint32_t>(i);
    spec.name = "serp" + std::to_string(dofs[i]);
    spec.chain_spec = "serpentine:" + std::to_string(dofs[i]);
    spec.chain = kin::makeSerpentine(dofs[i]);
    reg.add(std::move(spec));
  }
  return reg;
}

/// submit() to the spec's lane, synchronously.
Response call(SpecRouter& router, std::uint32_t spec_id, Request request) {
  service::IkService* lane = router.serviceFor(spec_id);
  EXPECT_NE(lane, nullptr);
  if (!lane) return {};
  return lane->submit(std::move(request)).get();
}

TEST(RobotSpecRegistry, ResolveChainSpecGrammar) {
  EXPECT_EQ(resolveChainSpec("serpentine:9").dof(), 9u);
  EXPECT_EQ(resolveChainSpec("planar:4").dof(), 4u);
  EXPECT_EQ(resolveChainSpec("puma").dof(), 6u);
  EXPECT_THROW(resolveChainSpec("serpentine:9:oops"), std::invalid_argument);
}

TEST(RobotSpecRegistry, AddBindingParsesNamesAndAssignsDenseIds) {
  RobotSpecRegistry reg;
  reg.addBinding("left=serpentine:6");
  reg.addBinding("planar:4");
  // References returned by addBinding are invalidated by the next
  // registration (vector growth) — read through specs() instead.
  const RobotSpec& left = reg.specs()[0];
  const RobotSpec& bare = reg.specs()[1];
  EXPECT_EQ(left.id, 0u);
  EXPECT_EQ(left.name, "left");
  EXPECT_EQ(left.chain.dof(), 6u);
  EXPECT_EQ(bare.id, 1u);
  EXPECT_EQ(bare.name, "planar_4");  // ':' becomes '_' for metric names
  EXPECT_EQ(bare.chain.dof(), 4u);
  EXPECT_EQ(reg.findByName("left"), &reg.specs()[0]);
  EXPECT_EQ(reg.find(1), &reg.specs()[1]);
  EXPECT_EQ(reg.find(2), nullptr);
}

TEST(RobotSpecRegistry, AddBindingForwardsSolverPolicy) {
  RobotSpecRegistry reg;
  ik::SolveOptions options;
  options.max_iterations = 123;
  const RobotSpec& spec = reg.addBinding("arm=serpentine:5", "dls", options);
  EXPECT_EQ(spec.solver, "dls");
  EXPECT_EQ(spec.options.max_iterations, 123);
}

TEST(RobotSpecRegistry, DuplicateRegistrationThrows) {
  RobotSpecRegistry reg;
  reg.addBinding("arm=serpentine:6");
  EXPECT_THROW(reg.addBinding("arm=planar:4"), std::invalid_argument);  // name
  RobotSpec dup;
  dup.id = 0;  // id 0 is taken
  dup.name = "other";
  dup.chain = kin::makeSerpentine(4);
  EXPECT_THROW(reg.add(std::move(dup)), std::invalid_argument);
  EXPECT_EQ(reg.size(), 1u);  // failed registrations left no residue
}

TEST(RobotSpecRegistry, LoadFileReadsBindingsSkipsCommentsAndBlanks) {
  const std::string path = ::testing::TempDir() + "robots.spec";
  {
    std::ofstream file(path);
    file << "# fleet under test\n"
         << "left=serpentine:6\n"
         << "\n"
         << "right=planar:4   # trailing comment\n";
  }
  RobotSpecRegistry reg;
  EXPECT_EQ(reg.loadFile(path), 2u);
  ASSERT_NE(reg.findByName("right"), nullptr);
  EXPECT_EQ(reg.findByName("right")->chain.dof(), 4u);
  std::remove(path.c_str());
}

TEST(SpecRouter, EmptyRegistryThrows) {
  RobotSpecRegistry reg;
  EXPECT_THROW(SpecRouter router(reg), std::invalid_argument);
}

TEST(SpecRouter, UnknownSpecReturnsFalseWithoutInvokingCompletion) {
  const auto reg = makeRegistry({6});
  RouterConfig config;
  config.base.workers = 1;
  SpecRouter router(reg, config);
  // No lane means nothing to submit to: the caller owns the answer.
  EXPECT_EQ(router.serviceFor(7), nullptr);
  EXPECT_EQ(router.specFor(7), nullptr);
  EXPECT_NE(router.serviceFor(0), nullptr);
}

TEST(SpecRouter, RoutingIsBitIdenticalToStandaloneSingleSpecService) {
  // The acceptance criterion: a request routed through the multi-spec
  // router must solve exactly as it would in a dedicated single-spec
  // deployment — same solver, same queue, same (disabled) cache.
  const auto reg = makeRegistry({5, 8});
  RouterConfig config;
  config.base.workers = 1;
  config.base.enable_seed_cache = false;
  SpecRouter router(reg, config);

  for (const RobotSpec& spec : reg.specs()) {
    service::ServiceConfig standalone_config = config.base;
    service::IkService standalone(RobotSpecRegistry::makeFactory(spec),
                                  standalone_config);
    for (std::uint32_t i = 0; i < 8; ++i) {
      const Response routed = call(router, spec.id, requestFor(spec.chain, i));
      const Response direct =
          standalone.submit(requestFor(spec.chain, i)).get();
      ASSERT_EQ(routed.status, ResponseStatus::kSolved);
      ASSERT_EQ(direct.status, ResponseStatus::kSolved);
      EXPECT_EQ(routed.result.iterations, direct.result.iterations);
      EXPECT_TRUE(bitIdentical(routed.result.theta, direct.result.theta))
          << spec.name << " task " << i;
    }
    standalone.stop();
  }
}

TEST(SpecRouter, SeedCachesAreIsolatedPerSpec) {
  // Same chain geometry behind two spec ids: identical targets, so a
  // shared cache WOULD cross-hit.  The lanes must not.
  RobotSpecRegistry reg;
  for (std::uint32_t id = 0; id < 2; ++id) {
    RobotSpec spec;
    spec.id = id;
    spec.name = "twin" + std::to_string(id);
    spec.chain = kin::makeSerpentine(6);
    reg.add(std::move(spec));
  }
  RouterConfig config;
  config.base.workers = 1;
  config.base.enable_seed_cache = true;
  SpecRouter router(reg, config);

  // Warm spec 0 with repeats of the same task; spec 1 never sees it.
  for (int round = 0; round < 4; ++round)
    call(router, 0, requestFor(reg.specs()[0].chain, 0, /*use_cache=*/true));
  auto lanes = router.perSpecStats();
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_GT(lanes[0].stats.cache_hits, 0u);
  EXPECT_EQ(lanes[1].stats.cache_hits, 0u);

  // The identical target against spec 1 must MISS: a warm entry in
  // spec 0's cache is invisible across the lane boundary.
  call(router, 1, requestFor(reg.specs()[1].chain, 0, /*use_cache=*/true));
  lanes = router.perSpecStats();
  EXPECT_EQ(lanes[1].stats.cache_hits, 0u);
  EXPECT_GT(lanes[1].stats.cache_misses, 0u);
}

TEST(SpecRouter, BatchedDispatchNeverMixesSpecs) {
  // Interleave a burst across specs with batching wide open.  Every
  // response's theta must carry its own spec's DOF — a cross-spec
  // burst would hand a request to the wrong lane's solver and
  // the dimension would betray it.
  const std::vector<std::size_t> dofs = {4, 7, 10};
  const auto reg = makeRegistry(dofs);
  RouterConfig config;
  config.base.workers = 1;
  config.base.max_batch = 16;
  config.base.batch_wait_us = 2000;  // force coalescing
  config.base.enable_seed_cache = false;
  SpecRouter router(reg, config);

  constexpr int kPerSpec = 24;
  struct Pending {
    std::uint32_t spec;
    std::future<Response> future;
  };
  std::vector<Pending> pending;
  for (int i = 0; i < kPerSpec; ++i) {
    for (const RobotSpec& spec : reg.specs()) {
      auto promise = std::make_shared<std::promise<Response>>();
      pending.push_back({spec.id, promise->get_future()});
      service::IkService* lane = router.serviceFor(spec.id);
      ASSERT_NE(lane, nullptr);
      lane->submit(requestFor(spec.chain, static_cast<std::uint32_t>(i)),
                   [promise](Response r) { promise->set_value(std::move(r)); });
    }
  }
  for (auto& p : pending) {
    const Response r = p.future.get();
    ASSERT_EQ(r.status, ResponseStatus::kSolved);
    EXPECT_EQ(r.result.theta.size(), dofs[p.spec]);
  }
  // Coalescing actually engaged (occupancy > 1 somewhere) and every
  // lane batched only its own load.
  const auto stats = router.aggregatedStats();
  EXPECT_GT(stats.batches, 0u);
  for (const auto& lane : router.perSpecStats())
    EXPECT_EQ(lane.stats.submitted, static_cast<std::uint64_t>(kPerSpec));
}

TEST(SpecRouter, AggregateConservesLaneCountersAndMetricsAreLabelled) {
  const auto reg = makeRegistry({5, 6});
  RouterConfig config;
  config.base.workers = 1;
  SpecRouter router(reg, config);
  for (std::uint32_t i = 0; i < 5; ++i) call(router, 0, requestFor(reg.specs()[0].chain, i));
  for (std::uint32_t i = 0; i < 3; ++i) call(router, 1, requestFor(reg.specs()[1].chain, i));

  const auto aggregate = router.aggregatedStats();
  EXPECT_EQ(aggregate.submitted, 8u);
  EXPECT_EQ(aggregate.accounted(), aggregate.submitted);
  std::uint64_t lane_sum = 0;
  for (const auto& lane : router.perSpecStats()) lane_sum += lane.stats.submitted;
  EXPECT_EQ(lane_sum, aggregate.submitted);

  const obs::MetricsSnapshot snap = router.metrics();
  const auto counterValue = [&](const std::string& name) -> double {
    for (const auto& c : snap.counters)
      if (c.name == name) return static_cast<double>(c.value);
    ADD_FAILURE() << "missing counter " << name;
    return -1.0;
  };
  EXPECT_EQ(counterValue("dadu_spec_serp5_requests"), 5.0);
  EXPECT_EQ(counterValue("dadu_spec_serp6_requests"), 3.0);
  bool saw_specs_gauge = false;
  for (const auto& g : snap.gauges)
    if (g.name == "dadu_registry_specs") {
      saw_specs_gauge = true;
      EXPECT_EQ(g.value, 2.0);
    }
  EXPECT_TRUE(saw_specs_gauge);
}

}  // namespace
}  // namespace dadu::registry
