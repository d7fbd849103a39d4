// Circuit-breaker and solver-watchdog regression tests.
//
// The breaker unit tests drive the state machine with explicit
// timestamps (admit()/recordSolve() take `now`), so every transition is
// deterministic — no sleeps, no flaky timing.  The service-level tests
// then confirm the same machine wired into IkService: trip under a
// pinned queue, fast-reject while Open, recover through half-open
// probes, and surface watchdog timeouts as kTimedOut with best-so-far
// state.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dadu/fault/fault.hpp"
#include "dadu/ikacc/accelerator.hpp"
#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/service/circuit_breaker.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/solvers/factory.hpp"

namespace dadu::service {
namespace {

using Clock = CircuitBreaker::Clock;
using Admit = CircuitBreaker::Admit;
using State = CircuitBreaker::State;

CircuitBreakerConfig testConfig() {
  CircuitBreakerConfig config;
  config.enabled = true;
  config.trip_queue_depth = 4;
  config.trip_p99_ms = 10.0;
  config.latency_window = 8;
  config.min_samples = 4;
  config.open_ms = 100.0;
  config.half_open_probes = 2;
  config.shed_queue_depth = 2;
  return config;
}

Clock::time_point at(double ms) {
  static const Clock::time_point epoch = Clock::now();
  return epoch + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
}

TEST(CircuitBreakerTest, ShallowQueueAccepts) {
  CircuitBreaker breaker(testConfig());
  EXPECT_EQ(breaker.admit(Priority::kNormal, 0, at(0)), Admit::kAccept);
  EXPECT_EQ(breaker.state(), State::kClosed);
}

TEST(CircuitBreakerTest, DepthTripOpensAndFastRejects) {
  CircuitBreaker breaker(testConfig());
  EXPECT_EQ(breaker.admit(Priority::kNormal, 4, at(0)), Admit::kRejectOpen);
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_EQ(breaker.snapshot().trips, 1u);
  // While Open every caller is rejected without touching the queue —
  // even with the queue empty again (depth is not re-examined).
  EXPECT_EQ(breaker.admit(Priority::kHigh, 0, at(1)), Admit::kRejectOpen);
}

TEST(CircuitBreakerTest, OpenWindowElapsesIntoHalfOpenProbes) {
  CircuitBreaker breaker(testConfig());
  breaker.admit(Priority::kNormal, 4, at(0));  // trip
  EXPECT_EQ(breaker.admit(Priority::kNormal, 0, at(50)), Admit::kRejectOpen);
  // open_ms passed: the next submits become probes, capped at
  // half_open_probes outstanding; the overflow still fast-rejects.
  EXPECT_EQ(breaker.admit(Priority::kNormal, 0, at(101)), Admit::kProbe);
  EXPECT_EQ(breaker.admit(Priority::kNormal, 0, at(102)), Admit::kProbe);
  EXPECT_EQ(breaker.admit(Priority::kNormal, 0, at(103)), Admit::kRejectOpen);
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  EXPECT_EQ(breaker.snapshot().probes_issued, 2u);
}

TEST(CircuitBreakerTest, ProbeSuccessesClose) {
  CircuitBreaker breaker(testConfig());
  breaker.admit(Priority::kNormal, 4, at(0));
  breaker.admit(Priority::kNormal, 0, at(101));
  breaker.admit(Priority::kNormal, 0, at(102));
  breaker.onProbeResult(true, at(110));
  EXPECT_EQ(breaker.state(), State::kHalfOpen);  // 1 of 2 successes
  breaker.onProbeResult(true, at(111));
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_EQ(breaker.admit(Priority::kNormal, 0, at(120)), Admit::kAccept);
}

TEST(CircuitBreakerTest, ProbeFailureReopensWithFreshWindow) {
  CircuitBreaker breaker(testConfig());
  breaker.admit(Priority::kNormal, 4, at(0));
  breaker.admit(Priority::kNormal, 0, at(101));  // probe
  breaker.onProbeResult(false, at(105));
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_EQ(breaker.snapshot().trips, 2u);
  // The open window restarts at the failure, not the original trip.
  EXPECT_EQ(breaker.admit(Priority::kNormal, 0, at(150)), Admit::kRejectOpen);
  EXPECT_EQ(breaker.admit(Priority::kNormal, 0, at(206)), Admit::kProbe);
}

TEST(CircuitBreakerTest, LatencyP99Trips) {
  CircuitBreaker breaker(testConfig());
  for (int i = 0; i < 3; ++i) breaker.recordSolve(100.0, at(i));
  EXPECT_EQ(breaker.state(), State::kClosed);  // below min_samples
  breaker.recordSolve(100.0, at(3));
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_EQ(breaker.snapshot().trips, 1u);
}

TEST(CircuitBreakerTest, FastSolvesNeverTrip) {
  CircuitBreaker breaker(testConfig());
  for (int i = 0; i < 100; ++i) breaker.recordSolve(0.5, at(i));
  EXPECT_EQ(breaker.state(), State::kClosed);
}

TEST(CircuitBreakerTest, LowPrioritySheddingWhileClosed) {
  CircuitBreaker breaker(testConfig());
  EXPECT_EQ(breaker.admit(Priority::kLow, 2, at(0)), Admit::kShedLow);
  EXPECT_EQ(breaker.admit(Priority::kNormal, 2, at(1)), Admit::kAccept);
  EXPECT_EQ(breaker.admit(Priority::kHigh, 2, at(2)), Admit::kAccept);
  EXPECT_EQ(breaker.admit(Priority::kLow, 1, at(3)), Admit::kAccept);
  EXPECT_EQ(breaker.state(), State::kClosed);  // shedding is not a trip
}

TEST(CircuitBreakerTest, StaleProbeResultsIgnored) {
  CircuitBreaker breaker(testConfig());
  breaker.admit(Priority::kNormal, 4, at(0));
  breaker.admit(Priority::kNormal, 0, at(101));
  breaker.admit(Priority::kNormal, 0, at(102));
  breaker.onProbeResult(true, at(110));
  breaker.onProbeResult(true, at(111));
  ASSERT_EQ(breaker.state(), State::kClosed);
  // A late duplicate (no probes outstanding) must not wiggle the state.
  breaker.onProbeResult(false, at(112));
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_EQ(breaker.snapshot().trips, 1u);
}

// ---------------------------------------------- service integration

/// Lets a test hold a worker inside solve() until released (same idiom
/// as service_test.cpp).
class Gate {
 public:
  void waitUntilOpen() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void awaitArrivals(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

class GatedSolver : public ik::IkSolver {
 public:
  GatedSolver(kin::Chain chain, std::shared_ptr<Gate> gate)
      : chain_(std::move(chain)), gate_(std::move(gate)) {}

  ik::SolveResult solve(const linalg::Vec3&,
                        const linalg::VecX& seed) override {
    if (gate_) gate_->waitUntilOpen();
    ik::SolveResult r;
    r.status = ik::Status::kConverged;
    r.iterations = 1;
    r.theta = seed;
    return r;
  }
  std::string name() const override { return "gated"; }
  const kin::Chain& chain() const override { return chain_; }
  const ik::SolveOptions& options() const override { return options_; }

 private:
  kin::Chain chain_;
  std::shared_ptr<Gate> gate_;
  ik::SolveOptions options_;
};

Request simpleRequest(std::size_t dof, Priority priority = Priority::kNormal) {
  Request request;
  request.target = {0.4, 0.1, 0.0};
  request.seed = linalg::VecX(dof);
  request.use_seed_cache = false;
  request.priority = priority;
  return request;
}

TEST(ServiceBreakerTest, ShedsLowPriorityUnderDeepQueue) {
  const auto chain = kin::makePlanar(3);
  const auto gate = std::make_shared<Gate>();
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.enable_seed_cache = false;
  config.breaker.enabled = true;
  config.breaker.shed_queue_depth = 2;
  config.breaker.trip_queue_depth = 100;  // depth trip out of the way
  IkService svc(
      [&, gate] { return std::make_unique<GatedSolver>(chain, gate); },
      config);

  // Pin the worker, then stack two jobs so the observed depth is 2.
  auto pinned = svc.submit(simpleRequest(3));
  gate->awaitArrivals(1);
  auto q1 = svc.submit(simpleRequest(3));
  auto q2 = svc.submit(simpleRequest(3));

  const Response shed = svc.submit(simpleRequest(3, Priority::kLow)).get();
  EXPECT_EQ(shed.status, ResponseStatus::kRejected);
  EXPECT_EQ(shed.reject_reason, RejectReason::kOverloaded);
  // Normal traffic still passes at the same depth.
  auto kept = svc.submit(simpleRequest(3));

  gate->open();
  EXPECT_EQ(pinned.get().status, ResponseStatus::kSolved);
  EXPECT_EQ(q1.get().status, ResponseStatus::kSolved);
  EXPECT_EQ(q2.get().status, ResponseStatus::kSolved);
  EXPECT_EQ(kept.get().status, ResponseStatus::kSolved);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.shed_low_priority, 1u);
  EXPECT_EQ(stats.breaker.trips, 0u);
  EXPECT_EQ(stats.submitted, stats.accounted());
}

TEST(ServiceBreakerTest, TripsOpenThenRecoversThroughProbes) {
  const auto chain = kin::makePlanar(3);
  const auto gate = std::make_shared<Gate>();
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.enable_seed_cache = false;
  config.breaker.enabled = true;
  config.breaker.trip_queue_depth = 2;
  config.breaker.open_ms = 30.0;
  config.breaker.half_open_probes = 1;
  IkService svc(
      [&, gate] { return std::make_unique<GatedSolver>(chain, gate); },
      config);

  auto pinned = svc.submit(simpleRequest(3));
  gate->awaitArrivals(1);
  auto q1 = svc.submit(simpleRequest(3));
  auto q2 = svc.submit(simpleRequest(3));  // observed depth 2 -> trip

  const Response tripped = svc.submit(simpleRequest(3)).get();
  EXPECT_EQ(tripped.status, ResponseStatus::kRejected);
  EXPECT_EQ(tripped.reject_reason, RejectReason::kOverloaded);
  EXPECT_EQ(svc.breaker().state(), State::kOpen);

  // Drain the backlog, wait out the open window, then recover through
  // the single configured probe.
  gate->open();
  EXPECT_EQ(pinned.get().status, ResponseStatus::kSolved);
  q1.get();
  q2.get();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  const Response probe = svc.submit(simpleRequest(3)).get();
  EXPECT_EQ(probe.status, ResponseStatus::kSolved);
  EXPECT_EQ(svc.breaker().state(), State::kClosed);

  const ServiceStats stats = svc.stats();
  EXPECT_GE(stats.breaker.trips, 1u);
  EXPECT_GE(stats.breaker.probes_issued, 1u);
  EXPECT_GE(stats.rejected_overloaded, 1u);
  EXPECT_EQ(stats.submitted, stats.accounted());
}

// ------------------------------------------------- solver watchdog

/// A reachable target the solver can never be *satisfied* with:
/// accuracy 0.0 is unsatisfiable (error < 0 never holds) and the
/// target sits inside the workspace so the gradient stays alive for a
/// while (an unreachable target folds the chain straight into the
/// J^T e == 0 singularity and ends kStalled almost immediately).
linalg::Vec3 runawayTarget(const kin::Chain& chain) {
  return kin::endEffectorPosition(chain, linalg::VecX(chain.dof(), 0.25));
}

ik::SolveOptions runawayOptions() {
  ik::SolveOptions options;
  options.accuracy = 0.0;  // unsatisfiable by construction
  options.max_iterations = 50'000'000;
  return options;
}

/// Pins every solver iteration at delay_ms via the solver.iterate
/// fault point, so a solve lasts exactly as long as its deadline
/// allows — the only deterministic way to make quick-ik "slow" (left
/// alone it converges or stalls in low single-digit milliseconds).
fault::FaultPlan slowIterationPlan(double delay_ms) {
  fault::FaultPlan plan;
  plan.delayAt("solver.iterate", delay_ms);
  return plan;
}

TEST(SolverWatchdogTest, DeadlineStopsRunawaySolve) {
  const auto chain = kin::makeSerpentine(16);
  fault::ScopedFaultPlan slow(slowIterationPlan(5.0));
  for (const char* name : {"jt-serial", "jt-fixed-alpha", "quick-ik"}) {
    ik::SolveOptions options = runawayOptions();
    options.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(25);
    const auto solver = ik::makeSolver(name, chain, options);
    const auto start = std::chrono::steady_clock::now();
    const auto r =
        solver->solve(runawayTarget(chain), chain.zeroConfiguration());
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(r.status, ik::Status::kTimedOut) << name;
    EXPECT_GT(r.iterations, 0) << name;
    EXPECT_LT(elapsed_ms, 5000.0) << name;  // stopped early, generously
    for (double x : r.theta) EXPECT_TRUE(std::isfinite(x)) << name;
    EXPECT_TRUE(std::isfinite(r.error)) << name;
  }
}

TEST(SolverWatchdogTest, ExpiredDeadlineReturnsSeedImmediately) {
  const auto chain = kin::makeSerpentine(8);
  ik::SolveOptions options = runawayOptions();
  options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const auto solver = ik::makeSolver("quick-ik", chain, options);
  const linalg::VecX seed(8, 0.3);
  const auto r = solver->solve(runawayTarget(chain), seed);
  EXPECT_EQ(r.status, ik::Status::kTimedOut);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.theta, seed);  // best-so-far = the untouched seed
}

TEST(SolverWatchdogTest, DefaultDeadlineIsUnbounded) {
  const auto chain = kin::makeSerpentine(8);
  ik::SolveOptions options;  // epoch deadline = no watchdog
  EXPECT_FALSE(options.hasDeadline());
  const auto solver = ik::makeSolver("quick-ik", chain, options);
  const auto at = kin::endEffectorPosition(chain, linalg::VecX(8, 0.25));
  const auto r = solver->solve(at, linalg::VecX(8, 0.25));
  EXPECT_TRUE(r.converged());
}

TEST(SolverWatchdogTest, SetDeadlineOverridesOptionsAndClears) {
  const auto chain = kin::makeSerpentine(8);
  // Bounded budget so the cleared-deadline solve terminates on its own.
  ik::SolveOptions options;
  options.accuracy = 0.0;
  options.max_iterations = 100;
  const auto target = runawayTarget(chain);

  // Every solver that runs the Jacobian-transpose iteration loop (all
  // factory names but CCD) and IKAcc's model.
  std::vector<std::unique_ptr<ik::IkSolver>> solvers;
  for (const std::string& name : ik::solverNames())
    if (name != "ccd") solvers.push_back(ik::makeSolver(name, chain, options));
  solvers.push_back(std::make_unique<acc::IkAccelerator>(chain, options));

  for (const auto& solver : solvers) {
    const std::string name = solver->name();
    // An already-expired injected deadline beats the iteration budget.
    solver->setDeadline(std::chrono::steady_clock::now() -
                        std::chrono::milliseconds(1));
    const auto timed_out = solver->solve(target, chain.zeroConfiguration());
    EXPECT_EQ(timed_out.status, ik::Status::kTimedOut) << name;
    EXPECT_EQ(timed_out.iterations, 0) << name;

    // Clearing restores the unbounded default: the budget decides again.
    solver->setDeadline({});
    const auto budget_bound =
        solver->solve(target, chain.zeroConfiguration());
    EXPECT_EQ(budget_bound.status, ik::Status::kMaxIterations) << name;
    EXPECT_EQ(budget_bound.iterations, 100) << name;
  }
}

TEST(ServiceWatchdogTest, RequestDeadlineSurfacesAsTimedOut) {
  const auto chain = kin::makeSerpentine(16);
  fault::ScopedFaultPlan slow(slowIterationPlan(10.0));
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.enable_seed_cache = false;
  IkService svc(
      [&] { return ik::makeSolver("quick-ik", chain, runawayOptions()); },
      config);

  Request request;
  request.target = runawayTarget(chain);
  request.seed = linalg::VecX(16);
  request.use_seed_cache = false;
  request.deadline_ms = 150.0;  // picked up instantly, expires mid-solve
  const Response r = svc.submit(std::move(request)).get();

  ASSERT_EQ(r.status, ResponseStatus::kSolved);  // the solver *ran*
  EXPECT_EQ(r.result.status, ik::Status::kTimedOut);
  for (double x : r.result.theta) EXPECT_TRUE(std::isfinite(x));
  EXPECT_EQ(svc.stats().timed_out, 1u);

  // A stale watchdog deadline must not leak into the next request on
  // the same worker/solver: this one's own 150ms deadline governs, so
  // it runs a meaningful amount of work before ITS timeout — a leaked
  // (already-expired) deadline would kill it at iteration 0.
  Request next;
  next.target = runawayTarget(chain);
  next.seed = linalg::VecX(16);
  next.use_seed_cache = false;
  next.deadline_ms = 150.0;
  const Response r2 = svc.submit(std::move(next)).get();
  ASSERT_EQ(r2.status, ResponseStatus::kSolved);
  EXPECT_EQ(r2.result.status, ik::Status::kTimedOut);
  EXPECT_GT(r2.result.iterations, 0);
  EXPECT_GT(r2.solve_ms, 50.0);  // ran its own clock down, not a stale one
}

}  // namespace
}  // namespace dadu::service
