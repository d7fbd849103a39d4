// Jacobian tests: analytic vs finite-difference agreement across chain
// families (the load-bearing correctness property for every solver), and
// golden bits of the serial head (jtIterationHead) on every backend.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/jacobian.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/jt_common.hpp"
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
  JacobianScratch scratch;
  linalg::Vec3 ee;
  positionJacobian(chain, q, j, scratch, ee);
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

// ---------------------------------------------------------------------------
// Golden bits of the serial head.  The head's trig is the speculation
// walk's sin/cos on the dispatched backend, and every backend returns
// the same bits, so these hashes hold whatever backend runs
// (DADU_SPEC_BACKEND=scalar|avx2|avx512).  Recorded when the walk's
// sin/cos took fused multiply-adds, with each of the three backends
// forced (all three agreed); a change that is meant to keep the head's
// bits must pass unchanged.

/// FNV-1a over 64-bit words.  NaNs hash as one canonical pattern.
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double x) {
    std::uint64_t bits = 0x7ff8000000000000ULL;
    if (!std::isnan(x)) std::memcpy(&bits, &x, sizeof x);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Every third joint telescopes and every other revolute joint has a DH
/// angle offset, behind a rotated and translated base.
Chain makeOffsetMixedChain(std::size_t dof) {
  std::vector<Joint> joints;
  for (std::size_t i = 0; i < dof; ++i) {
    DhParam dh;
    dh.a = 0.08;
    dh.alpha = (i % 2 == 0) ? std::numbers::pi / 2 : -std::numbers::pi / 2;
    if (i % 3 == 2) {
      dh.theta = 0.2;
      joints.push_back(prismatic(dh, 0.0, 0.15));
    } else {
      if (i % 3 == 1) dh.theta = -0.7;
      joints.push_back(revolute(dh));
    }
  }
  linalg::Mat4 base =
      linalg::Mat4::rotationZ(0.7) * linalg::Mat4::rotationY(-0.4);
  base(0, 3) = 0.3;
  base(1, 3) = -0.25;
  base(2, 3) = 0.15;
  return Chain(std::move(joints), "mixed-offset+base", base);
}

struct HeadCase {
  std::string name;
  Chain chain;
  linalg::VecX theta;
  linalg::Vec3 target;
  std::uint64_t hash;
};

std::vector<HeadCase> headCases() {
  std::vector<HeadCase> cases;
  {
    Chain chain = makeSerpentine(12);
    linalg::VecX theta = randomConfig(chain, 5);
    cases.push_back({"serpentine:12", std::move(chain), std::move(theta),
                     {0.3, -0.2, 0.4}, 0x424b6c3ce557c008ULL});
  }
  {
    Chain chain = makeSerpentine(100);
    linalg::VecX theta = randomConfig(chain, 6);
    cases.push_back({"serpentine:100", std::move(chain), std::move(theta),
                     {0.5, 0.5, 0.5}, 0xa835b975c6eb3481ULL});
  }
  {
    Chain chain = makeOffsetMixedChain(30);
    workload::Rng rng(7);
    linalg::VecX theta(chain.dof());
    for (std::size_t i = 0; i < theta.size(); ++i)
      theta[i] = chain.joint(i).type == JointType::kRevolute
                     ? rng.angle()
                     : rng.uniform(chain.joint(i).min, chain.joint(i).max);
    cases.push_back({"mixed-offset+base:30", std::move(chain),
                     std::move(theta), {0.2, 0.1, -0.3},
                     0x6eb400ef0c440f84ULL});
  }
  {
    // Joint angles on both sides of the walk trig's +-1e5 cutoff: lanes
    // at or beyond it take libm, the rest the fast path.
    Chain chain = makeSerpentine(12);
    linalg::VecX theta(chain.dof());
    for (std::size_t i = 0; i < theta.size(); ++i)
      theta[i] = (i % 2 == 0 ? 1e5 : -1e5) +
                 0.37 * (static_cast<double>(i) - 5.5);
    cases.push_back({"serpentine:12 at 1e5", std::move(chain),
                     std::move(theta), {0.4, 0.3, 0.2},
                     0x4d3dd9dfc5541259ULL});
  }
  return cases;
}

TEST(JacobianGoldenBits, HeadMatchesRecordedBits) {
  for (const HeadCase& c : headCases()) {
    ik::JtWorkspace ws;
    const ik::JtIterationHead head =
        ik::jtIterationHead(c.chain, c.theta, c.target, ws);
    BitHash hash;
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t i = 0; i < c.chain.dof(); ++i) hash.add(ws.j(r, i));
    hash.add(head.error_vec.x);
    hash.add(head.error_vec.y);
    hash.add(head.error_vec.z);
    hash.add(head.error);
    for (std::size_t i = 0; i < c.chain.dof(); ++i) hash.add(ws.dtheta_base[i]);
    hash.add(head.alpha_base);
    EXPECT_EQ(hash.h, c.hash)
        << c.name << ": got 0x" << std::hex << hash.h << " on backend "
        << activeSpecBackendName();
  }
}

}  // namespace
}  // namespace dadu::kin
