// Pose-IK solver tests: convergence to reachable poses (position AND
// orientation), accuracy gating, rotation weighting and input
// validation.
#include <gtest/gtest.h>

#include <cstdint>

#include "dadu/kinematics/jacobian_full.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/linalg/rotation.hpp"
#include "dadu/solvers/pose_solvers.hpp"
#include "dadu/workload/rng.hpp"

namespace dadu::ik {
namespace {

linalg::VecX randomConfig(const kin::Chain& chain, std::uint64_t seed) {
  workload::Rng rng(seed);
  linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.angle();
  return q;
}

/// Reachable pose target: FK of a random configuration.
kin::Pose reachablePose(const kin::Chain& chain, std::uint64_t seed) {
  return kin::endEffectorPose(chain, randomConfig(chain, seed));
}

class QuickIkPoseConvergence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuickIkPoseConvergence, ReachesPoseTargets) {
  const auto chain = kin::makeSerpentine(GetParam());
  PoseSolveOptions options;
  QuickIkPoseSolver solver(chain, options);
  int converged = 0;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const kin::Pose target = reachablePose(chain, s * 101);
    const auto r = solver.solve(target, randomConfig(chain, s * 7));
    if (!r.converged()) continue;
    ++converged;
    EXPECT_LT(r.position_error, options.accuracy);
    EXPECT_LT(r.angular_error, options.angular_accuracy);
    // Independent verification of both claims.
    const kin::Pose reached = kin::endEffectorPose(chain, r.theta);
    EXPECT_LT((reached.position - target.position).norm(), options.accuracy);
    EXPECT_LT(linalg::rotationAngleBetween(reached.orientation,
                                           target.orientation),
              options.angular_accuracy);
  }
  EXPECT_GE(converged, 2) << GetParam() << "-DOF";
}

INSTANTIATE_TEST_SUITE_P(DofLadder, QuickIkPoseConvergence,
                         ::testing::Values(12, 25, 50));

TEST(QuickIkPose, RejectsZeroSpeculations) {
  PoseSolveOptions options;
  options.speculations = 0;
  EXPECT_THROW(QuickIkPoseSolver(kin::makeSerpentine(12), options),
               std::invalid_argument);
}

TEST(QuickIkPose, PositionOnlyAccuracyIsNotEnough) {
  // A run that satisfies position accuracy but not angular accuracy
  // must not report convergence: force it by demanding absurd angular
  // precision within a tiny budget.
  const auto chain = kin::makeSerpentine(25);
  PoseSolveOptions options;
  options.angular_accuracy = 1e-14;
  options.max_iterations = 30;
  QuickIkPoseSolver solver(chain, options);
  const auto r = solver.solve(reachablePose(chain, 3), randomConfig(chain, 4));
  EXPECT_FALSE(r.converged());
}

TEST(QuickIkPose, InputValidation) {
  const auto chain = kin::makeSerpentine(12);
  QuickIkPoseSolver solver(chain, {});
  kin::Pose bad;
  bad.position = {std::nan(""), 0, 0};
  EXPECT_THROW(solver.solve(bad, chain.zeroConfiguration()),
               std::invalid_argument);
  EXPECT_THROW(solver.solve(kin::Pose{}, linalg::VecX(3)),
               std::invalid_argument);
}

TEST(QuickIkPose, RotationWeightBalancesObjectives) {
  // With a vanishing rotation weight the solver ignores orientation in
  // its steps: position converges as in the 3-DOF task space.  (The
  // angular accuracy gate is relaxed accordingly here.)
  const auto chain = kin::makeSerpentine(25);
  PoseSolveOptions options;
  options.rotation_weight = 1e-9;
  options.angular_accuracy = 1e9;  // orientation unconstrained
  QuickIkPoseSolver solver(chain, options);
  const kin::Pose target = reachablePose(chain, 77);
  const auto r = solver.solve(target, randomConfig(chain, 78));
  EXPECT_TRUE(r.converged());
  EXPECT_LT(r.position_error, options.accuracy);
}

TEST(PoseSolvers, SeedSolutionReturnsImmediately) {
  const auto chain = kin::makeSerpentine(12);
  const auto q = randomConfig(chain, 5);
  const kin::Pose target = kin::endEffectorPose(chain, q);
  QuickIkPoseSolver quick(chain, {});
  const auto r = quick.solve(target, q);
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
}  // namespace dadu::ik
