// Restart meta-solver and parallel batch-runner tests.
#include <gtest/gtest.h>

#include <chrono>

#include "dadu/core/batch_runner.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/solvers/jt_serial.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/solvers/restart.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::ik {
namespace {

TEST(RestartSolver, RejectsBadConstruction) {
  EXPECT_THROW(RestartSolver(nullptr), std::invalid_argument);
  EXPECT_THROW(RestartSolver(std::make_unique<QuickIkSolver>(
                                 kin::makeSerpentine(12), SolveOptions{}),
                             -1),
               std::invalid_argument);
}

TEST(RestartSolver, NoRestartWhenFirstAttemptConverges) {
  const auto chain = kin::makeSerpentine(25);
  RestartSolver solver(
      std::make_unique<QuickIkSolver>(chain, SolveOptions{}), 4);
  const auto task = workload::generateTask(chain, 0);
  const auto r = solver.solve(task.target, task.seed);
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(solver.lastAttempts(), 1);
}

TEST(RestartSolver, RecoversFromSingularStart) {
  // Fully stretched planar chain towards an on-axis target: the plain
  // transpose method stalls instantly; restarts rescue it.
  const auto chain = kin::makePlanar(4, 0.25);
  SolveOptions options;
  options.max_iterations = 2000;
  RestartSolver solver(std::make_unique<QuickIkSolver>(chain, options), 5,
                       /*restart_seed=*/3);
  const auto r = solver.solve({0.5, 0.0, 0.0}, chain.zeroConfiguration());
  EXPECT_TRUE(r.converged());
  EXPECT_GT(solver.lastAttempts(), 1);
}

TEST(RestartSolver, AggregatesCostAcrossAttempts) {
  const auto chain = kin::makePlanar(4, 0.25);
  SolveOptions options;
  options.max_iterations = 50;
  QuickIkSolver probe(chain, options);
  const auto single = probe.solve({0.5, 0.0, 0.0}, chain.zeroConfiguration());
  ASSERT_EQ(single.status, Status::kStalled);

  RestartSolver solver(std::make_unique<QuickIkSolver>(chain, options), 3, 3);
  const auto r = solver.solve({0.5, 0.0, 0.0}, chain.zeroConfiguration());
  // Total iterations include the stalled first attempt plus retries.
  EXPECT_GE(solver.lastAttempts(), 2);
  EXPECT_GE(r.iterations, single.iterations);
}

TEST(RestartSolver, DeterministicRestartSequence) {
  const auto chain = kin::makePlanar(4, 0.25);
  SolveOptions options;
  options.max_iterations = 500;
  RestartSolver a(std::make_unique<QuickIkSolver>(chain, options), 5, 7);
  RestartSolver b(std::make_unique<QuickIkSolver>(chain, options), 5, 7);
  const auto ra = a.solve({0.5, 0.0, 0.0}, chain.zeroConfiguration());
  const auto rb = b.solve({0.5, 0.0, 0.0}, chain.zeroConfiguration());
  EXPECT_EQ(ra.theta, rb.theta);
  EXPECT_EQ(a.lastAttempts(), b.lastAttempts());
}

TEST(RestartSolver, ForwardsDeadlineAndStopsAfterTimeout) {
  // An expired deadline set on the wrapper reaches the inner solver,
  // and the timed-out first attempt starts no restart.
  const auto chain = kin::makeSerpentine(12);
  SolveOptions options;
  options.accuracy = 0.0;
  RestartSolver solver(std::make_unique<QuickIkSolver>(chain, options), 4);
  solver.setDeadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  const auto task = workload::generateTask(chain, 0);
  const auto r = solver.solve(task.target, task.seed);
  EXPECT_EQ(r.status, Status::kTimedOut);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(solver.lastAttempts(), 1);
}

TEST(RestartSolver, NameAdvertisesWrapping) {
  RestartSolver solver(
      std::make_unique<QuickIkSolver>(kin::makeSerpentine(12), SolveOptions{}),
      2);
  EXPECT_EQ(solver.name(), "quick-ik+restart");
}

}  // namespace
}  // namespace dadu::ik

namespace dadu {
namespace {

TEST(BatchRunner, MatchesSerialResults) {
  const auto chain = kin::makeSerpentine(12);
  const auto tasks = workload::generateTasks(chain, 12);
  const SolverFactory factory = [&] {
    return ik::makeSolver("quick-ik", chain, ik::SolveOptions{});
  };

  const auto serial = solveBatchParallel(factory, tasks, 1);
  const auto parallel = solveBatchParallel(factory, tasks, 4);
  ASSERT_EQ(serial.results.size(), tasks.size());
  ASSERT_EQ(parallel.results.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(serial.results[i].theta, parallel.results[i].theta) << i;
    EXPECT_EQ(serial.results[i].iterations, parallel.results[i].iterations);
  }
  EXPECT_EQ(serial.converged, parallel.converged);
}

TEST(BatchRunner, ReportsThroughput) {
  const auto chain = kin::makeSerpentine(12);
  const auto tasks = workload::generateTasks(chain, 5);
  const auto report = solveBatchParallel(
      [&] { return ik::makeSolver("quick-ik", chain, ik::SolveOptions{}); },
      tasks, 2);
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_GT(report.solves_per_second, 0.0);
  EXPECT_EQ(report.converged, 5);
}

TEST(BatchRunner, EmptyTaskListIsFine) {
  const auto chain = kin::makeSerpentine(12);
  const auto report = solveBatchParallel(
      [&] { return ik::makeSolver("quick-ik", chain, ik::SolveOptions{}); },
      {}, 4);
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.converged, 0);
}

TEST(BatchRunner, NullFactoryThrows) {
  EXPECT_THROW(solveBatchParallel(nullptr, {}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dadu
