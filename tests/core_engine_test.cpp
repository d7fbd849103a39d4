// IkEngine facade and trajectory-solver tests.
#include <gtest/gtest.h>

#include "dadu/core/engine.hpp"
#include "dadu/core/trajectory_solver.hpp"
#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/workload/targets.hpp"
#include "dadu/workload/trajectory.hpp"

namespace dadu {

// Without this gtest prints a Backend as its raw bytes, so the listed
// EngineBackend case names would shift whenever an enumerator is added
// or removed.  It lives in dadu, Backend's namespace, for gtest's
// argument-dependent lookup.
void PrintTo(Backend b, std::ostream* os) { *os << toString(b); }

namespace {

TEST(BackendToString, AllNamed) {
  EXPECT_EQ(toString(Backend::kCpuSerial), "cpu-serial");
  EXPECT_EQ(toString(Backend::kIkAcc), "ikacc");
  EXPECT_EQ(toString(Backend::kJtSerial), "jt-serial");
  EXPECT_EQ(toString(Backend::kPinvSvd), "pinv-svd");
}

class EngineBackend : public ::testing::TestWithParam<Backend> {};

TEST_P(EngineBackend, SolvesReachableTarget) {
  const auto chain = kin::makeSerpentine(25);
  IkEngine engine(chain, GetParam());
  const auto task = workload::generateTask(chain, 0);
  const auto r = engine.solve(task.target, task.seed);
  EXPECT_TRUE(r.converged()) << toString(GetParam());
  const auto reached = kin::endEffectorPosition(chain, r.theta);
  EXPECT_LT((reached - task.target).norm(), engine.options().accuracy);
}

INSTANTIATE_TEST_SUITE_P(All, EngineBackend,
                         ::testing::Values(Backend::kCpuSerial,
                                           Backend::kIkAcc, Backend::kJtSerial,
                                           Backend::kPinvSvd),
                         [](const auto& param_info) {
                           std::string n = toString(param_info.param);
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(Engine, DefaultSeedIsZeroConfiguration) {
  const auto chain = kin::makeSerpentine(12);
  IkEngine engine(chain);
  const auto task = workload::generateTask(chain, 0);
  const auto implicit = engine.solve(task.target);
  const auto explicit_seed =
      engine.solve(task.target, chain.zeroConfiguration());
  EXPECT_EQ(implicit.theta, explicit_seed.theta);
}

TEST(Engine, BatchSolveMatchesIndividual) {
  const auto chain = kin::makeSerpentine(12);
  IkEngine engine(chain);
  const auto tasks = workload::generateTasks(chain, 3);
  std::vector<linalg::Vec3> targets;
  for (const auto& t : tasks) targets.push_back(t.target);
  const auto seed = chain.zeroConfiguration();
  const auto batch = engine.solveBatch(targets, seed);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto single = engine.solve(targets[i], seed);
    EXPECT_EQ(batch[i].theta, single.theta);
  }
}

TEST(Engine, AcceleratorStatsOnlyForIkAcc) {
  const auto chain = kin::makeSerpentine(12);
  IkEngine cpu(chain, Backend::kCpuSerial);
  EXPECT_THROW(cpu.acceleratorStats(), std::logic_error);

  IkEngine acc_engine(chain, Backend::kIkAcc);
  const auto task = workload::generateTask(chain, 0);
  (void)acc_engine.solve(task.target, task.seed);
  EXPECT_GT(acc_engine.acceleratorStats().total_cycles, 0);
}

TEST(Trajectory, WarmStartTracksCircle) {
  const auto chain = kin::makeSerpentine(25);
  ik::SolveOptions options;
  ik::QuickIkSolver solver(chain, options);

  auto path = workload::circleTrajectory({1.2, 0.0, 0.5}, 0.4,
                                         linalg::Vec3::unitX(),
                                         linalg::Vec3::unitZ(), 20);
  path = workload::fitToWorkspace(chain, std::move(path));

  linalg::VecX seed(chain.dof(), 0.05);
  const auto tr = solveTrajectory(solver, path, seed);
  EXPECT_TRUE(tr.allConverged());
  EXPECT_EQ(tr.waypoints.size(), 20u);
  EXPECT_LT(tr.max_error, options.accuracy);
}

TEST(Trajectory, WarmStartCheaperThanColdOnAverage) {
  const auto chain = kin::makeSerpentine(25);
  ik::SolveOptions options;
  ik::QuickIkSolver solver(chain, options);

  auto path = workload::lineTrajectory({0.8, 0.2, 0.3}, {1.0, -0.2, 0.6}, 15);
  path = workload::fitToWorkspace(chain, std::move(path));
  const linalg::VecX seed(chain.dof(), 0.05);

  const auto warm = solveTrajectory(solver, path, seed);
  ASSERT_TRUE(warm.allConverged());

  // Cold: every waypoint from the initial seed.
  double cold_iters = 0.0;
  for (const auto& target : path)
    cold_iters += solver.solve(target, seed).iterations;
  cold_iters /= static_cast<double>(path.size());

  EXPECT_LT(warm.mean_iterations, cold_iters + 1e-9);
}

TEST(Trajectory, JointPathIsSmooth) {
  const auto chain = kin::makeSerpentine(25);
  ik::QuickIkSolver solver(chain, {});
  auto path = workload::circleTrajectory({1.0, 0.0, 0.5}, 0.3,
                                         linalg::Vec3::unitX(),
                                         linalg::Vec3::unitY(), 30);
  path = workload::fitToWorkspace(chain, std::move(path));
  const auto tr = solveTrajectory(solver, path, linalg::VecX(chain.dof(), 0.05));
  ASSERT_TRUE(tr.allConverged());
  // Dense waypoints + warm start => small joint steps.
  EXPECT_LT(tr.mean_joint_step, 1.0);
}

TEST(Trajectory, EmptyPathGivesEmptyResult) {
  const auto chain = kin::makeSerpentine(12);
  ik::QuickIkSolver solver(chain, {});
  const auto tr = solveTrajectory(solver, {}, chain.zeroConfiguration());
  EXPECT_TRUE(tr.waypoints.empty());
  EXPECT_TRUE(tr.allConverged());
  EXPECT_DOUBLE_EQ(tr.mean_iterations, 0.0);
}

}  // namespace
}  // namespace dadu
