// Solver plumbing tests: shared iteration head (Eq. 8), input
// validation, result summarisation and percentiles, and the factory.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/jacobian.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/solvers/jt_common.hpp"
#include "dadu/solvers/types.hpp"

namespace dadu::ik {
namespace {

TEST(StatusToString, AllValuesNamed) {
  EXPECT_EQ(toString(Status::kConverged), "converged");
  EXPECT_EQ(toString(Status::kMaxIterations), "max-iterations");
  EXPECT_EQ(toString(Status::kStalled), "stalled");
}

TEST(Summarize, EmptyBatch) {
  const BatchStats s = summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.convergenceRate(), 0.0);
}

TEST(Summarize, AggregatesMeans) {
  SolveResult a;
  a.status = Status::kConverged;
  a.iterations = 10;
  a.speculation_load = 640;
  a.error = 0.001;
  SolveResult b;
  b.status = Status::kMaxIterations;
  b.iterations = 30;
  b.speculation_load = 1920;
  b.error = 0.05;
  const BatchStats s = summarize({a, b});
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.converged, 1);
  EXPECT_DOUBLE_EQ(s.convergenceRate(), 0.5);
  EXPECT_DOUBLE_EQ(s.mean_iterations, 20.0);
  EXPECT_DOUBLE_EQ(s.mean_load, 1280.0);
  EXPECT_NEAR(s.mean_error, 0.0255, 1e-12);
}

TEST(Percentiles, NearestRankSemantics) {
  std::vector<SolveResult> batch(10);
  for (int i = 0; i < 10; ++i) batch[i].iterations = (i + 1) * 10;  // 10..100
  EXPECT_DOUBLE_EQ(iterationPercentile(batch, 50), 50.0);
  EXPECT_DOUBLE_EQ(iterationPercentile(batch, 90), 90.0);
  EXPECT_DOUBLE_EQ(iterationPercentile(batch, 100), 100.0);
  EXPECT_DOUBLE_EQ(iterationPercentile(batch, 0), 10.0);
  EXPECT_DOUBLE_EQ(iterationPercentile({}, 50), 0.0);
  // Order independence.
  std::swap(batch[0], batch[9]);
  EXPECT_DOUBLE_EQ(iterationPercentile(batch, 90), 90.0);
}

TEST(ValidateInputs, RejectsBadSeedSize) {
  const auto chain = kin::makePlanar(3);
  EXPECT_THROW(validateInputs(chain, {0.1, 0.1, 0.0}, linalg::VecX(2)),
               std::invalid_argument);
}

TEST(ValidateInputs, RejectsNonFiniteTarget) {
  const auto chain = kin::makePlanar(3);
  EXPECT_THROW(
      validateInputs(chain, {std::nan(""), 0, 0}, linalg::VecX(3)),
      std::invalid_argument);
  EXPECT_THROW(
      validateInputs(chain, {0, INFINITY, 0}, linalg::VecX(3)),
      std::invalid_argument);
}

TEST(ValidateInputs, RejectsNonFiniteSeed) {
  const auto chain = kin::makePlanar(2);
  linalg::VecX seed(2);
  seed[1] = std::nan("");
  EXPECT_THROW(validateInputs(chain, {0.1, 0, 0}, seed),
               std::invalid_argument);
}

TEST(JtIterationHead, ErrorMatchesDirectFk) {
  const auto chain = kin::makeSerpentine(10);
  const linalg::VecX theta(chain.dof(), 0.1);
  const linalg::Vec3 target{0.4, 0.2, 0.1};
  JtWorkspace ws;
  const auto head = jtIterationHead(chain, theta, target, ws);
  const auto x = kin::endEffectorPosition(chain, theta);
  EXPECT_NEAR(head.error, (target - x).norm(), 1e-14);
  EXPECT_NEAR((head.error_vec - (target - x)).norm(), 0.0, 1e-14);
}

TEST(JtIterationHead, AlphaBaseMatchesEq8) {
  const auto chain = kin::makeSerpentine(8);
  const linalg::VecX theta{0.2, -0.1, 0.3, 0.1, -0.2, 0.4, 0.0, 0.1};
  const linalg::Vec3 target{0.3, 0.3, 0.2};
  JtWorkspace ws;
  const auto head = jtIterationHead(chain, theta, target, ws);

  // Recompute Eq. 8 with explicit matrices: alpha = <e, JJ^T e> /
  // <JJ^T e, JJ^T e>.
  const auto j = kin::positionJacobian(chain, theta);
  const linalg::VecX e{head.error_vec.x, head.error_vec.y, head.error_vec.z};
  const linalg::VecX jte = j.applyTransposed(e);
  const linalg::VecX jjte = j * jte;
  const double expect = e.dot(jjte) / jjte.dot(jjte);
  EXPECT_NEAR(head.alpha_base, expect, 1e-12);

  // dtheta_base = J^T e.
  EXPECT_LT((ws.dtheta_base - jte).norm(), 1e-12);
}

TEST(JtIterationHead, AlphaBaseGuaranteesDescentInLinearModel) {
  // The Eq. 8 alpha minimises ||e - alpha JJ^T e||^2, so it is always
  // non-negative for a real error and reduces the linearised error.
  const auto chain = kin::makeSerpentine(12);
  JtWorkspace ws;
  for (int s = 0; s < 10; ++s) {
    linalg::VecX theta(chain.dof());
    for (std::size_t i = 0; i < theta.size(); ++i)
      theta[i] = 0.05 * static_cast<double>((s + 1) * (i % 5)) - 0.1;
    const linalg::Vec3 target{0.5, 0.1, 0.2};
    const auto head = jtIterationHead(chain, theta, target, ws);
    if (!head.stalled) {
      EXPECT_GE(head.alpha_base, 0.0);
    }
  }
}

TEST(JtIterationHead, StallsAtExactSingularity) {
  // Planar chain fully stretched along +x, target further along +x:
  // J^T e = 0 although the error is nonzero -> stall flag.
  const auto chain = kin::makePlanar(3, 0.1);
  JtWorkspace ws;
  const auto head =
      jtIterationHead(chain, chain.zeroConfiguration(), {0.5, 0.0, 0.0}, ws);
  EXPECT_TRUE(head.stalled);
  EXPECT_GT(head.error, 0.0);
}

TEST(PinvSvd, StallsWithZeroErrorOnAnExactlyReachedTarget) {
  // The target is the head's own end-effector position at the seed, so
  // the first head measures error exactly 0.  accuracy = 0 cannot be met
  // (convergence is error < accuracy), and the step J+ e is zero: no
  // progress is possible, which ends the solve kStalled at once instead
  // of spending its budget.
  const auto chain = kin::makeSerpentine(8);
  const linalg::VecX seed(8, 0.25);
  linalg::MatX j;
  kin::JacobianScratch scratch;
  linalg::Vec3 reached;
  kin::positionJacobian(chain, seed, j, scratch, reached);
  SolveOptions options;
  options.accuracy = 0.0;
  options.max_iterations = 100;
  const auto r = makeSolver("pinv-svd", chain, options)->solve(reached, seed);
  EXPECT_EQ(r.status, Status::kStalled);
  EXPECT_EQ(r.error, 0.0);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.theta, seed);
}

TEST(Factory, AllAdvertisedNamesConstruct) {
  const auto chain = kin::makeSerpentine(12);
  SolveOptions options;
  for (const auto& name : solverNames()) {
    const auto solver = makeSolver(name, chain, options);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->chain().dof(), 12u);
  }
}

TEST(Factory, UnknownNameThrows) {
  const auto chain = kin::makeSerpentine(12);
  EXPECT_THROW(makeSolver("fancy-new-method", chain, {}),
               std::invalid_argument);
  EXPECT_THROW(makeSolver("quick-ik-mt", chain, {}), std::invalid_argument);
}

TEST(Factory, NamesAreStable) {
  const auto chain = kin::makePlanar(4);
  for (const auto& name : solverNames()) {
    const auto solver = makeSolver(name, chain, {});
    EXPECT_EQ(solver->name(), name);
  }
}

}  // namespace
}  // namespace dadu::ik
