// Chain construction, validation, limits and DH transform tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dadu/kinematics/chain.hpp"
#include "dadu/kinematics/dh.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/linalg/rotation.hpp"

namespace dadu::kin {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(DhTransform, PureRotationAboutZ) {
  const DhParam p{0.0, 0.0, 0.0, 0.0};
  const linalg::Mat4 t = dhTransformRevolute(p, kPi / 2);
  const linalg::Vec3 x = t.transformDirection({1, 0, 0});
  EXPECT_NEAR((x - linalg::Vec3(0, 1, 0)).norm(), 0.0, 1e-14);
  EXPECT_EQ(t.position(), linalg::Vec3::zero());
}

TEST(DhTransform, LinkLengthTranslatesAlongRotatedX) {
  const DhParam p{2.0, 0.0, 0.0, 0.0};
  const linalg::Mat4 t0 = dhTransformRevolute(p, 0.0);
  EXPECT_NEAR((t0.position() - linalg::Vec3(2, 0, 0)).norm(), 0.0, 1e-14);
  const linalg::Mat4 t90 = dhTransformRevolute(p, kPi / 2);
  EXPECT_NEAR((t90.position() - linalg::Vec3(0, 2, 0)).norm(), 0.0, 1e-14);
}

TEST(DhTransform, OffsetAlongZ) {
  const DhParam p{0.0, 0.0, 1.5, 0.0};
  const linalg::Mat4 t = dhTransformRevolute(p, 0.7);
  EXPECT_NEAR((t.position() - linalg::Vec3(0, 0, 1.5)).norm(), 0.0, 1e-14);
}

TEST(DhTransform, TwistRotatesSubsequentFrame) {
  const DhParam p{0.0, kPi / 2, 0.0, 0.0};
  const linalg::Mat4 t = dhTransformRevolute(p, 0.0);
  // After a +90 deg twist about x, the new z axis maps to the old -y...
  const linalg::Vec3 z = t.transformDirection({0, 0, 1});
  EXPECT_NEAR((z - linalg::Vec3(0, -1, 0)).norm(), 0.0, 1e-14);
}

TEST(DhTransform, RotationBlockAlwaysOrthonormal) {
  for (double q : {0.0, 0.3, -1.2, 2.9}) {
    const DhParam p{0.7, 0.4, -0.2, 0.1};
    EXPECT_TRUE(linalg::isRotation(dhTransformRevolute(p, q).rotation(), 1e-12));
  }
}

TEST(DhTransform, PrismaticExtendsAlongZ) {
  const DhParam p{0.0, 0.0, 0.5, 0.0};
  const linalg::Mat4 t = dhTransformPrismatic(p, 0.25);
  EXPECT_NEAR((t.position() - linalg::Vec3(0, 0, 0.75)).norm(), 0.0, 1e-14);
  // Prismatic joints do not rotate with q.
  EXPECT_EQ(dhTransformPrismatic(p, 0.0).rotation(),
            dhTransformPrismatic(p, 1.0).rotation());
}

TEST(Chain, EmptyThrows) {
  EXPECT_THROW(Chain({}, "empty"), std::invalid_argument);
}

TEST(Chain, NonFiniteDhThrows) {
  std::vector<Joint> joints = {revolute({std::nan(""), 0, 0, 0})};
  EXPECT_THROW(Chain(std::move(joints)), std::invalid_argument);
}

TEST(Chain, InvertedLimitsThrow) {
  std::vector<Joint> joints = {revolute({0.1, 0, 0, 0}, 1.0, -1.0)};
  EXPECT_THROW(Chain(std::move(joints)), std::invalid_argument);
}

TEST(Chain, DofAndMaxReach) {
  std::vector<Joint> joints = {revolute({0.5, 0, 0, 0}),
                               revolute({0.3, 0, 0.2, 0})};
  const Chain chain(std::move(joints), "two");
  EXPECT_EQ(chain.dof(), 2u);
  EXPECT_DOUBLE_EQ(chain.maxReach(), 1.0);
  EXPECT_EQ(chain.name(), "two");
}

TEST(Chain, LimitsCheckAndClamp) {
  std::vector<Joint> joints = {revolute({0.1, 0, 0, 0}, -1.0, 1.0),
                               revolute({0.1, 0, 0, 0})};
  const Chain chain(std::move(joints));
  EXPECT_TRUE(chain.withinLimits({0.5, 100.0}));
  EXPECT_FALSE(chain.withinLimits({1.5, 0.0}));
  const linalg::VecX clamped = chain.clampToLimits({2.0, -7.0});
  EXPECT_DOUBLE_EQ(clamped[0], 1.0);
  EXPECT_DOUBLE_EQ(clamped[1], -7.0);
}

TEST(Chain, RequireSizeThrowsOnMismatch) {
  const Chain chain({revolute({0.1, 0, 0, 0})});
  EXPECT_THROW(chain.requireSize(linalg::VecX(2)), std::invalid_argument);
  EXPECT_NO_THROW(chain.requireSize(linalg::VecX(1)));
}

TEST(Chain, ZeroConfiguration) {
  const Chain chain({revolute({0.1, 0, 0, 0}), revolute({0.1, 0, 0, 0})});
  const linalg::VecX q = chain.zeroConfiguration();
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.maxAbs(), 0.0);
}

TEST(Joint, ClampBehaviour) {
  const Joint j = revolute({0, 0, 0, 0}, -0.5, 0.5);
  EXPECT_DOUBLE_EQ(j.clamp(0.4), 0.4);
  EXPECT_DOUBLE_EQ(j.clamp(0.9), 0.5);
  EXPECT_DOUBLE_EQ(j.clamp(-0.9), -0.5);
  EXPECT_TRUE(j.hasLimits());
  EXPECT_FALSE(revolute({0, 0, 0, 0}).hasLimits());
}

TEST(Chain, PrismaticReachIncludesExtension) {
  std::vector<Joint> joints = {prismatic({0.0, 0, 0.1, 0}, -0.2, 0.4)};
  const Chain chain(std::move(joints));
  EXPECT_DOUBLE_EQ(chain.maxReach(), 0.1 + 0.4);
}

}  // namespace
}  // namespace dadu::kin
