// Forward kinematics tests: analytic planar ground truth, frame
// consistency, long-chain numerical health, exactness of the structured
// head compose against the dense 4x4 product, and the FK flop model.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dadu/kinematics/dh.hpp"
#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/jacobian.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/linalg/rotation.hpp"
#include "dadu/workload/rng.hpp"

namespace dadu::kin {
namespace {

constexpr double kPi = std::numbers::pi;

// Textbook closed form for the planar N-link arm.
linalg::Vec3 planarAnalytic(std::size_t n, double link, const linalg::VecX& q) {
  double x = 0.0, y = 0.0, acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += q[i];
    x += link * std::cos(acc);
    y += link * std::sin(acc);
  }
  return {x, y, 0.0};
}

TEST(ForwardKinematics, PlanarTwoLinkKnownPose) {
  const Chain chain = makePlanar(2, 1.0);
  // Both joints at 90 deg: first link up, second link back along -x.
  const linalg::Vec3 p = endEffectorPosition(chain, {kPi / 2, kPi / 2});
  EXPECT_NEAR(p.x, -1.0, 1e-12);
  EXPECT_NEAR(p.y, 1.0, 1e-12);
  EXPECT_NEAR(p.z, 0.0, 1e-12);
}

TEST(ForwardKinematics, PlanarZeroConfigStretchesAlongX) {
  const Chain chain = makePlanar(5, 0.2);
  const linalg::Vec3 p = endEffectorPosition(chain, chain.zeroConfiguration());
  EXPECT_NEAR(p.x, 1.0, 1e-12);
  EXPECT_NEAR(p.y, 0.0, 1e-12);
}

class PlanarAnalytic
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(PlanarAnalytic, MatchesClosedForm) {
  const auto [n, seed] = GetParam();
  const double link = 0.13;
  const Chain chain = makePlanar(n, link);
  workload::Rng rng(seed);
  linalg::VecX q(n);
  for (std::size_t i = 0; i < n; ++i) q[i] = rng.angle();
  const linalg::Vec3 got = endEffectorPosition(chain, q);
  const linalg::Vec3 want = planarAnalytic(n, link, q);
  EXPECT_NEAR((got - want).norm(), 0.0, 1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanarAnalytic,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 20, 100),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(ForwardKinematics, SerpentineZeroConfigReach) {
  // With alternating +-90 deg twists and all joints zero, every link
  // still advances `link` along its local x, so the end effector ends
  // at distance dof*link from the base only if the xs stay aligned.
  // What must hold unconditionally: position norm <= max reach.
  for (std::size_t dof : {12u, 25u, 50u}) {
    const Chain chain = makeSerpentine(dof, 0.1);
    const linalg::Vec3 p =
        endEffectorPosition(chain, chain.zeroConfiguration());
    EXPECT_LE(p.norm(), chain.maxReach() + 1e-9);
  }
}

TEST(ForwardKinematics, ReachBoundHoldsForRandomConfigs) {
  const Chain chain = makeSerpentine(25);
  workload::Rng rng(99);
  linalg::VecX q(chain.dof());
  for (int s = 0; s < 50; ++s) {
    for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.angle();
    EXPECT_LE(endEffectorPosition(chain, q).norm(), chain.maxReach() + 1e-9);
  }
}

TEST(ForwardKinematics, LinkFramesLastEqualsEndEffector) {
  const Chain chain = makeSerpentine(12);
  workload::Rng rng(5);
  linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.angle();
  const auto frames = linkFrames(chain, q);
  ASSERT_EQ(frames.size(), chain.dof());
  const linalg::Mat4 full = forwardKinematics(chain, q);
  EXPECT_LT((frames.back().position() - full.position()).norm(), 1e-12);
}

TEST(ForwardKinematics, FramesComposeIncrementally) {
  const Chain chain = makeSerpentine(8);
  const linalg::VecX q{0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8};
  const auto frames = linkFrames(chain, q);
  // frames[i] == frames[i-1] * T_i
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const linalg::Mat4 expect = frames[i - 1] * chain.joint(i).transform(q[i]);
    EXPECT_LT((expect.position() - frames[i].position()).norm(), 1e-12);
  }
}

TEST(ForwardKinematics, RotationStaysOrthonormalOver100Joints) {
  const Chain chain = makeSerpentine(100);
  workload::Rng rng(7);
  linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = rng.angle();
  const linalg::Mat4 t = forwardKinematics(chain, q);
  EXPECT_LT(linalg::orthonormalityError(t.rotation()), 1e-12);
}

TEST(ForwardKinematics, BaseFrameOffsetsEndEffector) {
  std::vector<Joint> joints = {revolute({1.0, 0, 0, 0})};
  const Chain offset(std::move(joints), "offset",
                     linalg::Mat4::translation({0, 0, 5}));
  const linalg::Vec3 p = endEffectorPosition(offset, linalg::VecX(1));
  EXPECT_NEAR((p - linalg::Vec3(1, 0, 5)).norm(), 0.0, 1e-12);
}

TEST(ForwardKinematics, SizeMismatchThrows) {
  const Chain chain = makePlanar(3);
  EXPECT_THROW(endEffectorPosition(chain, linalg::VecX(2)),
               std::invalid_argument);
}

TEST(ForwardKinematics, ScratchReuseGivesSameResult) {
  const Chain chain = makeSerpentine(10);
  std::vector<linalg::Mat4> frames;
  linalg::VecX q(chain.dof(), 0.2);
  linkFrames(chain, q, frames);
  const linalg::Vec3 first = frames.back().position();
  linkFrames(chain, q, frames);  // reuse
  EXPECT_EQ(frames.back().position(), first);
}

// The dense reference for linkFrames: every link frame as the full 4x4
// product t * dhTransform(...), the DH matrix's 0 and 1 entries
// included, with libm trig of the joint angle and the link twist.
std::vector<linalg::Mat4> denseLinkFrames(const Chain& chain,
                                          const linalg::VecX& q) {
  std::vector<linalg::Mat4> frames;
  linalg::Mat4 t = chain.base();
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const Joint& joint = chain.joint(i);
    const DhParam& p = joint.dh;
    const bool revolute = joint.type == JointType::kRevolute;
    const double angle = revolute ? p.theta + q[i] : p.theta;
    const double d = revolute ? p.d : p.d + q[i];
    t = t * dhTransform(p, std::cos(angle), std::sin(angle),
                        std::cos(p.alpha), std::sin(p.alpha), d);
    frames.push_back(t);
  }
  return frames;
}

// The position Jacobian of jacobian.cpp, built on the dense frames.
linalg::MatX denseJacobian(const Chain& chain,
                           const std::vector<linalg::Mat4>& frames) {
  linalg::MatX j(3, chain.dof());
  const linalg::Vec3 ee = frames.back().position();
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const linalg::Mat4& prev = i == 0 ? chain.base() : frames[i - 1];
    const linalg::Vec3 z = prev.rotation().col(2);
    if (chain.joint(i).type == JointType::kRevolute)
      j.setCol3(i, z.cross(ee - prev.position()));
    else
      j.setCol3(i, z);
  }
  return j;
}

// Every third joint telescopes, so both DH compose branches run.
Chain makeMixedChain(std::size_t dof) {
  std::vector<Joint> joints;
  for (std::size_t i = 0; i < dof; ++i) {
    DhParam dh;
    dh.a = 0.08;
    dh.alpha = (i % 2 == 0) ? kPi / 2 : -kPi / 2;
    if (i % 3 == 2) {
      dh.theta = 0.2;
      joints.push_back(prismatic(dh, 0.0, 0.15));
    } else {
      joints.push_back(revolute(dh));
    }
  }
  return Chain(std::move(joints), "mixed");
}

Chain withOffsetBase(const Chain& chain) {
  linalg::Mat4 base =
      linalg::Mat4::rotationZ(0.7) * linalg::Mat4::rotationY(-0.4);
  base(0, 3) = 0.3;
  base(1, 3) = -0.25;
  base(2, 3) = 0.15;
  return Chain(chain.joints(), chain.name() + "+base", base);
}

// linkFrames, forwardKinematics and positionJacobian compose each link
// against the DH structure instead of the dense 4x4 product.  That
// skips only products with exact 0 and 1 entries, so every entry must
// equal the dense product's under == (+0 and -0 compare equal).
TEST(ForwardKinematics, StructuredComposeMatchesDenseProduct) {
  std::vector<Chain> chains;
  for (std::size_t dof : {7u, 12u, 25u, 50u, 100u})
    chains.push_back(makeSerpentine(dof));
  chains.push_back(makeMixedChain(30));
  chains.push_back(withOffsetBase(makeSerpentine(25)));
  chains.push_back(withOffsetBase(makeMixedChain(30)));

  workload::Rng rng(17);
  for (const Chain& chain : chains) {
    for (int sample = 0; sample < 5; ++sample) {
      linalg::VecX q(chain.dof());
      for (std::size_t i = 0; i < q.size(); ++i)
        q[i] = chain.joint(i).type == JointType::kRevolute
                   ? rng.angle()
                   : rng.uniform(chain.joint(i).min, chain.joint(i).max);
      const auto want = denseLinkFrames(chain, q);
      const auto got = linkFrames(chain, q);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        for (std::size_t r = 0; r < 4; ++r)
          for (std::size_t c = 0; c < 4; ++c)
            ASSERT_EQ(got[i](r, c), want[i](r, c))
                << chain.name() << " sample " << sample << " frame " << i
                << " entry (" << r << ", " << c << ")";

      const linalg::Mat4 fk = forwardKinematics(chain, q);
      for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
          ASSERT_EQ(fk(r, c), want.back()(r, c))
              << chain.name() << " forwardKinematics entry (" << r << ", "
              << c << ")";

      const linalg::MatX jac = positionJacobian(chain, q);
      const linalg::MatX jac_want = denseJacobian(chain, want);
      for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < chain.dof(); ++c)
          ASSERT_EQ(jac(r, c), jac_want(r, c))
              << chain.name() << " Jacobian entry (" << r << ", " << c
              << ")";
    }
  }
}

TEST(FkFlops, MonotoneInDof) {
  EXPECT_EQ(fkFlops(0), 0);
  EXPECT_GT(fkFlops(10), fkFlops(5));
  EXPECT_EQ(fkFlops(100), 10 * fkFlops(10));
}

}  // namespace
}  // namespace dadu::kin
