// Convergence tests: every solver reaches reachable targets within the
// paper's accuracy across chain families and DOF counts, with the FK of
// the returned joints verified independently.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::ik {
namespace {

using Case = std::tuple<std::string, std::size_t>;  // solver, dof

class SolverConvergence : public ::testing::TestWithParam<Case> {};

TEST_P(SolverConvergence, ReachesReachableTargets) {
  const auto& [name, dof] = GetParam();
  const auto chain = kin::makeSerpentine(dof);
  SolveOptions options;  // accuracy 1e-2, 10k iterations
  const auto solver = makeSolver(name, chain, options);

  const int targets = 5;
  const auto tasks = workload::generateTasks(chain, targets);
  int converged = 0;
  for (const auto& task : tasks) {
    const SolveResult r = solver->solve(task.target, task.seed);
    if (!r.converged()) continue;
    ++converged;
    // Independent check: FK of the returned configuration really is
    // within accuracy of the target.
    const auto reached = kin::endEffectorPosition(chain, r.theta);
    EXPECT_LT((reached - task.target).norm(), options.accuracy)
        << name << " dof=" << dof;
    EXPECT_NEAR((reached - task.target).norm(), r.error, 1e-9);
    EXPECT_LE(r.iterations, options.max_iterations);
  }
  // First-order methods on redundant chains reliably solve reachable
  // targets; demand full success for the paper's methods and allow one
  // miss for the geometric CCD baseline.
  const int required = (name == "ccd") ? targets - 1 : targets;
  EXPECT_GE(converged, required) << name << " dof=" << dof;
}

std::string caseName(const ::testing::TestParamInfo<Case>& info) {
  auto n = std::get<0>(info.param) + "_" + std::to_string(std::get<1>(info.param));
  for (char& c : n)
    if (c == '-') c = '_';
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    PaperMethods, SolverConvergence,
    ::testing::Combine(::testing::Values("jt-serial", "quick-ik", "pinv-svd"),
                       ::testing::Values<std::size_t>(12, 25, 50)),
    caseName);

INSTANTIATE_TEST_SUITE_P(
    ExtraBaselines, SolverConvergence,
    ::testing::Combine(::testing::Values("dls", "sdls", "ccd"),
                       ::testing::Values<std::size_t>(12, 25)),
    caseName);

TEST(SolverConvergence, QuickIkHandles100Dof) {
  const auto chain = kin::makeSerpentine(100);
  SolveOptions options;
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(chain, 0);
  const auto r = solver.solve(task.target, task.seed);
  EXPECT_TRUE(r.converged());
  EXPECT_LT(r.error, options.accuracy);
}

TEST(SolverConvergence, PumaReachesInteriorTarget) {
  const auto chain = kin::makePuma560();
  SolveOptions options;
  options.clamp_to_limits = true;
  QuickIkSolver solver(chain, options);
  // A target generated from a within-limits configuration.
  const auto task = workload::generateTask(chain, 3);
  const auto r = solver.solve(task.target, task.seed);
  EXPECT_TRUE(r.converged());
  EXPECT_TRUE(chain.withinLimits(r.theta));
}

TEST(SolverConvergence, TightAccuracyStillConverges) {
  const auto chain = kin::makeSerpentine(12);
  SolveOptions options;
  options.accuracy = 1e-4;  // 10x tighter than the paper
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(chain, 1);
  const auto r = solver.solve(task.target, task.seed);
  EXPECT_TRUE(r.converged());
  EXPECT_LT(r.error, 1e-4);
}

TEST(SolverConvergence, IterationBudgetRespected) {
  const auto chain = kin::makeSerpentine(50);
  SolveOptions options;
  options.max_iterations = 3;
  options.accuracy = 1e-9;  // unreachable precision in 3 iterations
  for (const char* name : {"jt-serial", "quick-ik", "pinv-svd"}) {
    const auto solver = makeSolver(name, chain, options);
    const auto task = workload::generateTask(chain, 2);
    const auto r = solver->solve(task.target, task.seed);
    EXPECT_FALSE(r.converged()) << name;
    EXPECT_LE(r.iterations, 3) << name;
    EXPECT_EQ(r.status, Status::kMaxIterations) << name;
  }
}

TEST(SolverConvergence, ZeroAccuracyNeverConverges) {
  const auto chain = kin::makeSerpentine(12);
  SolveOptions options;
  options.accuracy = 0.0;
  options.max_iterations = 20;
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(chain, 0);
  EXPECT_FALSE(solver.solve(task.target, task.seed).converged());
}

TEST(SolverConvergence, WarmSeedConvergesFasterThanCold) {
  const auto chain = kin::makeSerpentine(25);
  SolveOptions options;
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(chain, 4);

  const auto cold = solver.solve(task.target, task.seed);
  ASSERT_TRUE(cold.converged());
  // Warm: start at the converged solution, perturbed slightly.
  linalg::VecX warm = cold.theta;
  warm[0] += 0.01;
  const auto hot = solver.solve(task.target, warm);
  ASSERT_TRUE(hot.converged());
  EXPECT_LE(hot.iterations, cold.iterations);
}

}  // namespace
}  // namespace dadu::ik
