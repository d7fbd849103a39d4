// Failure-injection tests: malformed inputs, degenerate geometry and
// adversarial options must produce exceptions or clean non-converged
// results — never crashes, hangs or NaN joint vectors.  The service
// section drives the same contract through IkService with dadu_fault
// plans: an injected solver throw or worker stall must surface as a
// typed Response exactly once, never as a lost future or callback.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <vector>

#include "dadu/fault/fault.hpp"
#include "dadu/ikacc/accelerator.hpp"
#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::ik {
namespace {

void expectFinite(const linalg::VecX& v) {
  for (double x : v) EXPECT_TRUE(std::isfinite(x));
}

class SolverFailureInjection : public ::testing::TestWithParam<std::string> {
 protected:
  kin::Chain chain_ = kin::makeSerpentine(12);
};

TEST_P(SolverFailureInjection, NanTargetThrows) {
  const auto solver = makeSolver(GetParam(), chain_, {});
  EXPECT_THROW(
      solver->solve({std::nan(""), 0.0, 0.0}, chain_.zeroConfiguration()),
      std::invalid_argument);
}

TEST_P(SolverFailureInjection, InfiniteTargetThrows) {
  const auto solver = makeSolver(GetParam(), chain_, {});
  EXPECT_THROW(solver->solve({0.0, std::numeric_limits<double>::infinity(), 0.0},
                             chain_.zeroConfiguration()),
               std::invalid_argument);
}

TEST_P(SolverFailureInjection, WrongSeedSizeThrows) {
  const auto solver = makeSolver(GetParam(), chain_, {});
  EXPECT_THROW(solver->solve({0.3, 0.2, 0.1}, linalg::VecX(5)),
               std::invalid_argument);
}

TEST_P(SolverFailureInjection, NanSeedThrows) {
  const auto solver = makeSolver(GetParam(), chain_, {});
  linalg::VecX seed(12);
  seed[7] = std::nan("");
  EXPECT_THROW(solver->solve({0.3, 0.2, 0.1}, seed), std::invalid_argument);
}

TEST_P(SolverFailureInjection, TargetAtBaseOriginStaysFinite) {
  // The base origin maximises fold-over singularity exposure.
  SolveOptions options;
  options.max_iterations = 100;
  const auto solver = makeSolver(GetParam(), chain_, options);
  const auto r = solver->solve({0.0, 0.0, 0.0}, linalg::VecX(12, 0.2));
  expectFinite(r.theta);
  EXPECT_TRUE(std::isfinite(r.error));
}

TEST_P(SolverFailureInjection, ZeroIterationBudget) {
  SolveOptions options;
  options.max_iterations = 0;
  const auto solver = makeSolver(GetParam(), chain_, options);
  const auto task = workload::generateTask(chain_, 0);
  const auto r = solver->solve(task.target, task.seed);
  EXPECT_EQ(r.iterations, 0);
  expectFinite(r.theta);
  // Seed configuration should be returned untouched.
  EXPECT_EQ(r.theta, task.seed);
  // A zero budget is exhausted, not converged, and reports the seed's
  // measured error.
  EXPECT_EQ(r.status, Status::kMaxIterations);
  const double seed_error =
      (task.target - kin::endEffectorPosition(chain_, task.seed)).norm();
  EXPECT_NEAR(r.error, seed_error, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(All, SolverFailureInjection,
                         ::testing::ValuesIn(solverNames()),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(FailureInjection, AcceleratorValidatesLikeSoftware) {
  const auto chain = kin::makeSerpentine(12);
  acc::IkAccelerator hw(chain, {});
  EXPECT_THROW(hw.solve({std::nan(""), 0, 0}, chain.zeroConfiguration()),
               std::invalid_argument);
  EXPECT_THROW(hw.solve({0.1, 0.1, 0.1}, linalg::VecX(3)),
               std::invalid_argument);
}

TEST(FailureInjection, SingleJointChainWorks) {
  const kin::Chain tiny({kin::revolute({0.5, 0, 0, 0})}, "one-joint");
  SolveOptions options;
  options.max_iterations = 500;
  for (const char* name : {"jt-serial", "quick-ik", "pinv-svd", "ccd"}) {
    const auto solver = makeSolver(name, tiny, options);
    // Reachable: the circle of radius 0.5 about the base z axis.
    const auto r = solver->solve({0.0, 0.5, 0.0}, linalg::VecX(1, 0.3));
    EXPECT_TRUE(r.converged()) << name;
  }
}

// JT-Serial's fixed gain on the one-joint chain of SingleJointChainWorks,
// from every seed 0.00, 0.01, ..., 0.99, with that test's budget.  The
// gain c / lambda_max(JJ^T) with c = 1.9 < 2 is inside the stability
// bound, so every seed converges, and quickly (at most 30 iterations
// when measured); the old 4 / sum-of-squared-lever-arms gain (alpha *
// lambda_max = 4 here) left 27 to 30 of them unconverged.
TEST(FailureInjection, SingleJointChainJtSerialConvergesFromEverySeed) {
  const kin::Chain tiny({kin::revolute({0.5, 0, 0, 0})}, "one-joint");
  SolveOptions options;
  options.max_iterations = 500;
  const auto solver = makeSolver("jt-serial", tiny, options);
  for (int s = 0; s < 100; ++s) {
    const double seed = 0.01 * s;
    const auto r = solver->solve({0.0, 0.5, 0.0}, linalg::VecX(1, seed));
    EXPECT_TRUE(r.converged())
        << "seed " << seed << " error " << r.error << " after "
        << r.iterations << " iterations";
    EXPECT_LE(r.iterations, 50) << "seed " << seed;
  }
}

TEST(FailureInjection, TargetEqualsCurrentPoseConvergesInstantly) {
  const auto chain = kin::makeSerpentine(12);
  const linalg::VecX seed(12, 0.25);
  const auto at = kin::endEffectorPosition(chain, seed);
  for (const auto& name : solverNames()) {
    const auto solver = makeSolver(name, chain, {});
    const auto r = solver->solve(at, seed);
    EXPECT_TRUE(r.converged()) << name;
    EXPECT_EQ(r.iterations, 0) << name;
  }
}

TEST(FailureInjection, HugeSpeculationCountStillCorrect) {
  const auto chain = kin::makeSerpentine(12);
  SolveOptions options;
  options.speculations = 1000;  // more than any sensible hardware
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(chain, 0);
  const auto r = solver.solve(task.target, task.seed);
  EXPECT_TRUE(r.converged());

  acc::AccConfig cfg;
  cfg.num_ssus = 32;  // 1000 speculations -> 32 waves
  acc::IkAccelerator hw(chain, options, cfg);
  const auto rh = hw.solve(task.target, task.seed);
  EXPECT_EQ(rh.theta, r.theta);
  EXPECT_EQ(hw.lastStats().waves_per_iteration, 32);
}

TEST(FailureInjection, TinyLinksDoNotUnderflow) {
  const auto chain = kin::makeSerpentine(12, 1e-6);
  SolveOptions options;
  options.accuracy = 1e-9;
  options.max_iterations = 200;
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(chain, 0);
  const auto r = solver.solve(task.target, task.seed);
  expectFinite(r.theta);
}

// -------------------------------------- service-layer fault plans

fault::FaultPlan solverThrowPlan() {
  fault::FaultPlan plan;
  plan.errorAt("service.worker.solve", "chaos solver fault");
  return plan;
}

service::Request serviceRequest(const kin::Chain& chain,
                                std::uint32_t index) {
  const auto task = workload::generateTask(chain, index);
  service::Request request;
  request.target = task.target;
  request.seed = task.seed;
  request.use_seed_cache = false;
  return request;
}

TEST(ServiceFailureInjection, InjectedSolverThrowRejectsCallbackPath) {
  const auto chain = kin::makeSerpentine(6);
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.enable_seed_cache = false;
  service::IkService svc(
      [&] { return makeSolver("quick-ik", chain, {}); }, config);

  fault::ScopedFaultPlan plan(solverThrowPlan());

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<service::Response> delivered;
  constexpr int kRequests = 4;
  for (std::uint32_t i = 0; i < kRequests; ++i)
    svc.submit(serviceRequest(chain, i), [&](service::Response r) {
      std::lock_guard<std::mutex> lock(mutex);
      delivered.push_back(std::move(r));
      cv.notify_all();
    });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return delivered.size() == kRequests;
    })) << "lost a completion callback";
  }
  for (const service::Response& r : delivered) {
    EXPECT_EQ(r.status, service::ResponseStatus::kRejected);
    EXPECT_EQ(r.reject_reason, service::RejectReason::kInternalError);
    EXPECT_NE(r.message.find("chaos solver fault"), std::string::npos);
  }
  EXPECT_EQ(svc.stats().internal_errors, kRequests);
  EXPECT_EQ(svc.stats().submitted, svc.stats().accounted());
}

TEST(ServiceFailureInjection, InjectedSolverThrowRethrowsFromFuture) {
  const auto chain = kin::makeSerpentine(6);
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.enable_seed_cache = false;
  service::IkService svc(
      [&] { return makeSolver("quick-ik", chain, {}); }, config);

  fault::ScopedFaultPlan plan(solverThrowPlan());
  auto future = svc.submit(serviceRequest(chain, 0));
  try {
    future.get();
    FAIL() << "future should rethrow the injected solver exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chaos solver fault");
  }
  // The worker survives its solver throwing: next request solves.
  fault::FaultInjector::global().disarm();
  EXPECT_EQ(svc.submit(serviceRequest(chain, 1)).get().status,
            service::ResponseStatus::kSolved);
}

TEST(ServiceFailureInjection, WorkerStallPlanExpiresDeadlinesNotFutures) {
  const auto chain = kin::makeSerpentine(6);
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.enable_seed_cache = false;
  service::IkService svc(
      [&] { return makeSolver("quick-ik", chain, {}); }, config);

  // Every pickup stalls 30ms; requests carrying a 5ms deadline must
  // come back kDeadlineExceeded (the stall happens before the deadline
  // check), and every future must resolve — none may be lost.
  fault::FaultPlan plan;
  plan.delayAt("service.worker.stall", 30.0);
  fault::ScopedFaultPlan armed(plan);

  std::vector<std::future<service::Response>> futures;
  for (std::uint32_t i = 0; i < 4; ++i) {
    service::Request request = serviceRequest(chain, i);
    request.deadline_ms = 5.0;
    futures.push_back(svc.submit(std::move(request)));
  }
  int expired = 0;
  for (auto& future : futures) {
    const service::Response r = future.get();  // resolving at all is the test
    if (r.status == service::ResponseStatus::kDeadlineExceeded) ++expired;
  }
  EXPECT_GE(expired, 1);
  EXPECT_EQ(svc.stats().deadline_expired, static_cast<std::uint64_t>(expired));
  EXPECT_EQ(svc.stats().submitted, svc.stats().accounted());
}

}  // namespace
}  // namespace dadu::ik
