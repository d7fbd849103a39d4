// Cross-solver property tests on randomised chains: determinism,
// error-consistency, robustness at singular starts, behaviour on
// unreachable targets, and baseline-specific invariants (SDLS step
// bound, DLS boundedness, CCD sweep monotonicity).
#include <gtest/gtest.h>

#include <cstdint>

#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/ccd.hpp"
#include "dadu/solvers/dls.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/solvers/jt_serial.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/solvers/sdls.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::ik {
namespace {

class SolverDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverDeterminism, SameInputsSameOutputs) {
  const auto chain = kin::makeRandomChain(15, 3);
  SolveOptions options;
  options.max_iterations = 500;
  const auto solver = makeSolver(GetParam(), chain, options);
  const auto task = workload::generateTask(chain, 0);
  const auto a = solver->solve(task.target, task.seed);
  const auto b = solver->solve(task.target, task.seed);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.status, b.status);
}

INSTANTIATE_TEST_SUITE_P(All, SolverDeterminism,
                         ::testing::Values("jt-serial", "quick-ik",
                                           "pinv-svd", "dls", "sdls", "ccd"),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

class SolverErrorConsistency : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverErrorConsistency, ReportedErrorMatchesFkOfTheta) {
  for (std::uint64_t cseed = 1; cseed <= 3; ++cseed) {
    const auto chain = kin::makeRandomChain(12, cseed);
    SolveOptions options;
    options.max_iterations = 300;
    const auto solver = makeSolver(GetParam(), chain, options);
    const auto task = workload::generateTask(chain, 1);
    const auto r = solver->solve(task.target, task.seed);
    const auto reached = kin::endEffectorPosition(chain, r.theta);
    EXPECT_NEAR(r.error, (task.target - reached).norm(), 1e-9)
        << GetParam() << " chain seed " << cseed;
  }
}

INSTANTIATE_TEST_SUITE_P(All, SolverErrorConsistency,
                         ::testing::Values("jt-serial", "quick-ik", "pinv-svd",
                                           "dls", "sdls", "ccd"),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(SolverProperty, UnreachableTargetExhaustsBudgetNotCrash) {
  const auto chain = kin::makeSerpentine(12, 0.1);  // reach 1.2
  SolveOptions options;
  options.max_iterations = 150;
  const linalg::Vec3 far{5.0, 0.0, 0.0};
  for (const char* name : {"jt-serial", "quick-ik", "dls", "sdls"}) {
    const auto solver = makeSolver(name, chain, options);
    const auto r = solver->solve(far, linalg::VecX(chain.dof(), 0.1));
    EXPECT_FALSE(r.converged()) << name;
    // Error should approach "distance minus reach" — the chain points
    // at the target: generous bound of distance - 0.5*reach.
    EXPECT_GT(r.error, 5.0 - 1.2 - 1e-6) << name;
    EXPECT_LT(r.error, 5.0 + 1.2) << name;
  }
}

TEST(SolverProperty, StretchedSingularStartEitherStallsOrSolves) {
  // Fully stretched planar chain, target on the axis beyond reach
  // direction but within reach: J^T e = 0 exactly at start.
  const auto chain = kin::makePlanar(4, 0.25);
  SolveOptions options;
  options.max_iterations = 200;
  JtSerialSolver jt(chain, options);
  const auto r = jt.solve({0.5, 0.0, 0.0}, chain.zeroConfiguration());
  // Start is exactly singular towards the target: JT must report a
  // stall (no crash, no NaN).
  EXPECT_EQ(r.status, Status::kStalled);
  for (double v : r.theta) EXPECT_TRUE(std::isfinite(v));
}

TEST(SolverProperty, DlsBoundedNearSingularStart) {
  // DLS is built to stay bounded at singular configurations; from the
  // stretched start with a slight perturbation it must make progress
  // and keep joints finite.
  const auto chain = kin::makePlanar(4, 0.25);
  SolveOptions options;
  options.max_iterations = 2000;
  DlsSolver dls(chain, options, 0.05);
  linalg::VecX seed(chain.dof());
  seed[0] = 1e-3;
  const auto r = dls.solve({0.5, 0.3, 0.0}, seed);
  EXPECT_TRUE(r.converged());
  for (double v : r.theta) EXPECT_TRUE(std::isfinite(v));
}

TEST(SolverProperty, SdlsStepBoundHolds) {
  // Every SDLS joint step is clamped to gamma_max.
  const auto chain = kin::makeSerpentine(20);
  SolveOptions options;
  options.max_iterations = 50;
  const double gamma_max = 0.3;
  SdlsSolver sdls(chain, options, gamma_max);
  const auto task = workload::generateTask(chain, 0);

  // Track successive thetas via history-free re-solve with increasing
  // budgets (cheap because budgets are tiny).
  linalg::VecX prev = task.seed;
  for (int budget = 1; budget <= 10; ++budget) {
    SolveOptions o = options;
    o.max_iterations = budget;
    SdlsSolver s(chain, o, gamma_max);
    const auto r = s.solve(task.target, task.seed);
    const linalg::VecX step = r.theta - prev;
    EXPECT_LE(step.maxAbs(), gamma_max + 1e-9) << "budget " << budget;
    prev = r.theta;
    if (r.converged()) break;
  }
}

TEST(SolverProperty, CcdSweepNeverIncreasesErrorOnPlanarChain) {
  const auto chain = kin::makePlanar(6, 0.2);
  SolveOptions options;
  options.record_history = true;
  options.max_iterations = 50;
  CcdSolver ccd(chain, options);
  const auto r = ccd.solve({0.4, 0.5, 0.0}, linalg::VecX(chain.dof(), 0.3));
  for (std::size_t i = 1; i < r.error_history.size(); ++i)
    EXPECT_LE(r.error_history[i], r.error_history[i - 1] + 1e-9);
}

TEST(SolverProperty, QuickIkConvergesOnRandomChainFamilies) {
  int converged = 0, total = 0;
  for (std::uint64_t cs = 1; cs <= 5; ++cs) {
    const auto chain = kin::makeRandomChain(20, cs);
    QuickIkSolver solver(chain, {});
    const auto task = workload::generateTask(chain, 0);
    ++total;
    if (solver.solve(task.target, task.seed).converged()) ++converged;
  }
  EXPECT_EQ(converged, total);
}

TEST(SolverProperty, ResultThetaSizeMatchesDof) {
  const auto chain = kin::makeSerpentine(33);
  for (const auto& name : solverNames()) {
    SolveOptions options;
    options.max_iterations = 5;
    const auto solver = makeSolver(name, chain, options);
    const auto task = workload::generateTask(chain, 0);
    EXPECT_EQ(solver->solve(task.target, task.seed).theta.size(), 33u) << name;
  }
}

}  // namespace
}  // namespace dadu::ik
