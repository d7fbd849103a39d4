// Manipulability / isotropy metrics tests.
#include <gtest/gtest.h>

#include "dadu/kinematics/jacobian.hpp"
#include "dadu/kinematics/metrics.hpp"
#include "dadu/kinematics/presets.hpp"

namespace dadu::kin {
namespace {

TEST(Metrics, SingularStretchHasZeroManipulability) {
  // Planar chain fully stretched: rank-2 position Jacobian in 3-D.
  const auto chain = makePlanar(4, 0.25);
  const auto report = conditioningAt(chain, chain.zeroConfiguration());
  EXPECT_NEAR(report.manipulability, 0.0, 1e-12);
  EXPECT_NEAR(report.isotropy, 0.0, 1e-12);
  EXPECT_NEAR(report.sigma_min, 0.0, 1e-12);
  EXPECT_GT(report.sigma_max, 0.0);
}

TEST(Metrics, GenericConfigurationWellConditioned) {
  const auto chain = makeSerpentine(25);
  linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.15 * (i % 5) - 0.3;
  const auto report = conditioningAt(chain, q);
  EXPECT_GT(report.manipulability, 0.0);
  EXPECT_GT(report.isotropy, 0.0);
  EXPECT_LE(report.isotropy, 1.0);
  EXPECT_GE(report.sigma_max, report.sigma_min);
}

TEST(Metrics, IsotropyOneForIsotropicJacobian) {
  // A synthetic Jacobian with equal singular values.
  linalg::MatX j(3, 4);
  j(0, 0) = 1.0;
  j(1, 1) = 1.0;
  j(2, 2) = 1.0;
  EXPECT_NEAR(isotropyIndex(j), 1.0, 1e-12);
  EXPECT_NEAR(manipulability(j), 1.0, 1e-12);
}

TEST(Metrics, ManipulabilityScalesWithJacobian) {
  const auto chain = makeSerpentine(12);
  linalg::VecX q(chain.dof(), 0.2);
  const auto j = positionJacobian(chain, q);
  // sqrt(det((2J)(2J)^T)) = 8 * sqrt(det(JJ^T)) for 3 rows.
  EXPECT_NEAR(manipulability(j * 2.0), 8.0 * manipulability(j),
              1e-6 * manipulability(j) * 8.0);
}

}  // namespace
}  // namespace dadu::kin
