// Jacobian tests: analytic vs finite-difference agreement across chain
// families (the load-bearing correctness property for every solver).
#include <gtest/gtest.h>

#include <cstdint>

#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/jacobian.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/workload/rng.hpp"

namespace dadu::kin {
namespace {

linalg::VecX randomConfig(const Chain& chain, std::uint64_t seed) {
  workload::Rng rng(seed);
  linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.angle();
  return q;
}

double maxAbsDiff(const linalg::MatX& a, const linalg::MatX& b) {
  return (a - b).maxAbs();
}

TEST(Jacobian, PlanarSingleLinkClosedForm) {
  // One revolute joint about z, link 1: J = dp/dq = (-sin q, cos q, 0).
  const Chain chain = makePlanar(1, 1.0);
  const double q0 = 0.6;
  const linalg::MatX j = positionJacobian(chain, linalg::VecX{q0});
  EXPECT_NEAR(j(0, 0), -std::sin(q0), 1e-12);
  EXPECT_NEAR(j(1, 0), std::cos(q0), 1e-12);
  EXPECT_NEAR(j(2, 0), 0.0, 1e-12);
}

TEST(Jacobian, PlanarChainZRowIsZero) {
  const Chain chain = makePlanar(6);
  const linalg::MatX j = positionJacobian(chain, randomConfig(chain, 3));
  for (std::size_t c = 0; c < j.cols(); ++c) EXPECT_NEAR(j(2, c), 0.0, 1e-12);
}

struct JacobianCase {
  const char* family;
  std::size_t dof;
};

// Without this gtest prints the case as raw bytes, the `family` pointer
// among them, so the listed test names would change from run to run.
void PrintTo(const JacobianCase& c, std::ostream* os) {
  *os << c.family << '/' << c.dof;
}

class JacobianVsFiniteDifference
    : public ::testing::TestWithParam<JacobianCase> {
 protected:
  Chain makeChain() const {
    const auto& p = GetParam();
    if (std::string(p.family) == "planar") return makePlanar(p.dof);
    if (std::string(p.family) == "serpentine") return makeSerpentine(p.dof);
    if (std::string(p.family) == "random") return makeRandomChain(p.dof, 17);
    return makePuma560();
  }
};

TEST_P(JacobianVsFiniteDifference, Agrees) {
  const Chain chain = makeChain();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const linalg::VecX q = randomConfig(chain, seed * 31);
    const linalg::MatX analytic = positionJacobian(chain, q);
    const linalg::MatX numeric = finiteDifferenceJacobian(chain, q);
    EXPECT_LT(maxAbsDiff(analytic, numeric), 1e-6)
        << chain.name() << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, JacobianVsFiniteDifference,
    ::testing::Values(JacobianCase{"planar", 2}, JacobianCase{"planar", 10},
                      JacobianCase{"serpentine", 12},
                      JacobianCase{"serpentine", 25},
                      JacobianCase{"serpentine", 50},
                      JacobianCase{"serpentine", 100},
                      JacobianCase{"random", 12}, JacobianCase{"random", 30},
                      JacobianCase{"puma", 6}),
    [](const ::testing::TestParamInfo<JacobianCase>& param_info) {
      return std::string(param_info.param.family) + "_" +
             std::to_string(param_info.param.dof);
    });

TEST(Jacobian, PrismaticColumnIsAxis) {
  std::vector<Joint> joints = {prismatic({0, 0, 0.1, 0}, -1.0, 1.0),
                               revolute({0.3, 0, 0, 0})};
  const Chain chain(std::move(joints), "mixed");
  const linalg::MatX j = positionJacobian(chain, {0.2, 0.4});
  // First joint slides along base z.
  EXPECT_NEAR(j(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(j(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(j(2, 0), 1.0, 1e-12);
  // And the finite difference agrees on the whole matrix.
  EXPECT_LT(maxAbsDiff(j, finiteDifferenceJacobian(chain, {0.2, 0.4})), 1e-6);
}

TEST(Jacobian, SharedEvaluationMatchesSeparate) {
  const Chain chain = makeSerpentine(20);
  const linalg::VecX q = randomConfig(chain, 77);
  linalg::MatX j;
  std::vector<linalg::Mat4> frames;
  linalg::Vec3 ee;
  positionJacobian(chain, q, j, frames, ee);
  EXPECT_LT((ee - endEffectorPosition(chain, q)).norm(), 1e-12);
  EXPECT_LT(maxAbsDiff(j, positionJacobian(chain, q)), 1e-15);
}

TEST(Jacobian, ColumnNormBoundedByLeverArm) {
  // ||J_i|| <= distance from joint i to the end effector.
  const Chain chain = makeSerpentine(30);
  const linalg::VecX q = randomConfig(chain, 11);
  const auto frames = linkFrames(chain, q);
  const linalg::Vec3 ee = frames.back().position();
  const linalg::MatX j = positionJacobian(chain, q);
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const linalg::Vec3 p =
        i == 0 ? chain.base().position() : frames[i - 1].position();
    EXPECT_LE(j.col3(i).norm(), (ee - p).norm() + 1e-9);
  }
}

TEST(Jacobian, LastColumnShrinksTowardTip) {
  // Joints near the tip have small lever arms: for the serpentine at a
  // generic configuration, the last column's norm is at most one link.
  const Chain chain = makeSerpentine(40, 0.1);
  const linalg::MatX j = positionJacobian(chain, randomConfig(chain, 23));
  EXPECT_LE(j.col3(39).norm(), 0.1 + 1e-9);
}

TEST(Jacobian, FlopsModelMonotone) {
  EXPECT_GT(jacobianFlops(50), jacobianFlops(10));
  EXPECT_EQ(jacobianFlops(0), 0);
}

}  // namespace
}  // namespace dadu::kin
