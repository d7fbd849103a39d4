// Coverage of corners not exercised elsewhere: engine option
// propagation, CSV/table formatting details, scheduler partial waves,
// SVD degenerate inputs, workspace coverage sanity, fixed-point raw
// API.
#include <gtest/gtest.h>

#include <cmath>

#include "dadu/core/engine.hpp"
#include "dadu/ikacc/scheduler.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/kinematics/workspace.hpp"
#include "dadu/linalg/fixed_point.hpp"
#include "dadu/linalg/svd.hpp"
#include "dadu/report/table.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu {
namespace {

TEST(Engine, OptionsPropagateToSolver) {
  ik::SolveOptions options;
  options.accuracy = 5e-3;
  options.max_iterations = 123;
  options.speculations = 16;
  IkEngine engine(kin::makeSerpentine(12), Backend::kCpuSerial, options);
  EXPECT_DOUBLE_EQ(engine.solver().options().accuracy, 5e-3);
  EXPECT_EQ(engine.solver().options().max_iterations, 123);
  EXPECT_EQ(engine.solver().options().speculations, 16);
}

TEST(Engine, SolverNamesMatchBackends) {
  const auto chain = kin::makeSerpentine(12);
  EXPECT_EQ(IkEngine(chain, Backend::kCpuSerial).solver().name(), "quick-ik");
  EXPECT_EQ(IkEngine(chain, Backend::kIkAcc).solver().name(), "ikacc");
  EXPECT_EQ(IkEngine(chain, Backend::kJtSerial).solver().name(), "jt-serial");
  EXPECT_EQ(IkEngine(chain, Backend::kPinvSvd).solver().name(), "pinv-svd");
}

TEST(Scheduler, PartialFinalWaveAndFewerSpecsThanSsus) {
  const auto waves = dadu::acc::scheduleWaves(10, 32);
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(waves[0].count, 10u);  // only 10 SSUs active

  const auto waves2 = dadu::acc::scheduleWaves(33, 32);
  ASSERT_EQ(waves2.size(), 2u);
  EXPECT_EQ(waves2[1].count, 1u);
  EXPECT_EQ(waves2[1].first, 32u);
}

TEST(Svd, ZeroMatrixHandled) {
  const linalg::MatX z(3, 5);
  const auto svd = linalg::svdJacobi(z);
  EXPECT_EQ(svd.rank(), 0u);
  for (std::size_t i = 0; i < svd.s.size(); ++i)
    EXPECT_DOUBLE_EQ(svd.s[i], 0.0);
  EXPECT_LT(svd.reconstruct().maxAbs(), 1e-300);
  EXPECT_TRUE(std::isinf(svd.conditionNumber()));
}

TEST(Svd, RepeatedSingularValues) {
  // 2*I has sigma = {2, 2, 2}; reconstruction exact, rank full.
  const linalg::MatX a = linalg::MatX::identity(3) * 2.0;
  const auto svd = linalg::svdJacobi(a);
  EXPECT_EQ(svd.rank(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(svd.s[i], 2.0, 1e-12);
  EXPECT_LT((svd.reconstruct() - a).frobeniusNorm(), 1e-12);
}

TEST(Svd, ScalingScalesSingularValues) {
  linalg::MatX a{{1, 2, 0}, {0, 1, 3}, {2, 0, 1}};
  const auto s1 = linalg::svdJacobi(a);
  const auto s10 = linalg::svdJacobi(a * 10.0);
  for (std::size_t i = 0; i < s1.s.size(); ++i)
    EXPECT_NEAR(s10.s[i], 10.0 * s1.s[i], 1e-9);
}

TEST(Workspace, CoverageBetweenZeroAndAboveOne) {
  // Coverage is a cell-count ratio; it is positive for a dexterous
  // chain and (near) zero for a 1-DOF chain in 3-D.
  const double serp = kin::workspaceCoverage(kin::makeSerpentine(12), 800, 3);
  EXPECT_GT(serp, 0.0);
  const kin::Chain one({kin::revolute({0.5, 0, 0, 0})});
  const double circle = kin::workspaceCoverage(one, 400, 3);
  EXPECT_LT(circle, serp);
}

TEST(Table, SciFormatter) {
  EXPECT_EQ(report::Table::sci(0.000123, 1), "1.2e-04");
  EXPECT_EQ(report::Table::sci(98760.0, 3), "9.876e+04");
}

TEST(FixedPoint, RawSinCosApi) {
  const linalg::FixedFormat fmt{20};
  const auto sc = linalg::cordicSinCosFixed(fmt, 0.5);
  EXPECT_NEAR(fmt.toDouble(sc.sin_raw), std::sin(0.5), 1e-4);
  EXPECT_NEAR(fmt.toDouble(sc.cos_raw), std::cos(0.5), 1e-4);
}

TEST(FixedPoint, NegativeValuesRoundTrip) {
  const linalg::FixedFormat fmt{16};
  EXPECT_NEAR(fmt.toDouble(fmt.fromDouble(-123.456)), -123.456,
              fmt.resolution());
  EXPECT_NEAR(fmt.toDouble(fmt.mul(fmt.fromDouble(-2.0), fmt.fromDouble(3.0))),
              -6.0, 4 * fmt.resolution());
}

TEST(Targets, DifferentBaseSeedsDifferentWorkloads) {
  const auto chain = kin::makeSerpentine(12);
  workload::TargetGenOptions a, b;
  a.seed = 1;
  b.seed = 2;
  const auto ta = workload::generateTask(chain, 0, a);
  const auto tb = workload::generateTask(chain, 0, b);
  EXPECT_NE(ta.target, tb.target);
}

TEST(Presets, PaperLadderConstants) {
  ASSERT_EQ(std::size(kin::kPaperDofLadder), 5u);
  EXPECT_EQ(kin::kPaperDofLadder[0], 12u);
  EXPECT_EQ(kin::kPaperDofLadder[4], 100u);
}

}  // namespace
}  // namespace dadu
