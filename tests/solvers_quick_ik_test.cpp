// Quick-IK algorithm-specific tests: Eq. 9 speculation semantics,
// iteration-reduction vs JT-Serial,
// instrumentation counters and history recording.
#include <gtest/gtest.h>

#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/jt_eq8.hpp"
#include "dadu/solvers/jt_serial.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::ik {
namespace {

TEST(QuickIk, RejectsZeroSpeculations) {
  SolveOptions options;
  options.speculations = 0;
  EXPECT_THROW(QuickIkSolver(kin::makeSerpentine(12), options),
               std::invalid_argument);
}

TEST(QuickIk, OneSpeculationEqualsEq8Transpose) {
  // With Max = 1 the only speculation is alpha_base itself, so Quick-IK
  // degenerates to the Eq.-8 transpose method's trajectory exactly.
  const auto chain = kin::makeSerpentine(12);
  SolveOptions options;
  options.speculations = 1;
  options.max_iterations = 200;
  QuickIkSolver quick(chain, options);
  JtEq8Solver jt(chain, options);

  const auto task = workload::generateTask(chain, 0);
  const auto rq = quick.solve(task.target, task.seed);
  const auto rj = jt.solve(task.target, task.seed);
  EXPECT_EQ(rq.iterations, rj.iterations);
  EXPECT_LT((rq.theta - rj.theta).norm(), 1e-12);
}

TEST(QuickIk, ReducesIterationsMassivelyVsJtSerial) {
  // The headline claim (Fig. 5a): ~97% fewer iterations than the
  // original fixed-gain transpose method.  Require >= 90% over a small
  // batch to leave margin for workload differences while still
  // catching regressions in the speculation logic.
  const auto chain = kin::makeSerpentine(25);
  SolveOptions options;
  QuickIkSolver quick(chain, options);
  JtSerialSolver jt(chain, options);
  double quick_total = 0.0, jt_total = 0.0;
  for (int i = 0; i < 3; ++i) {
    const auto task = workload::generateTask(chain, i);
    const auto rq = quick.solve(task.target, task.seed);
    const auto rj = jt.solve(task.target, task.seed);
    ASSERT_TRUE(rq.converged());
    ASSERT_TRUE(rj.converged());
    quick_total += rq.iterations;
    jt_total += rj.iterations;
  }
  EXPECT_LT(quick_total, 0.1 * jt_total);
}

TEST(QuickIk, PerIterationErrorNonIncreasing) {
  // The selector takes the argmin over candidates that include
  // arbitrarily small steps, so the recorded error never increases.
  const auto chain = kin::makeSerpentine(25);
  SolveOptions options;
  options.record_history = true;
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(chain, 5);
  const auto r = solver.solve(task.target, task.seed);
  ASSERT_GE(r.error_history.size(), 2u);
  for (std::size_t i = 1; i < r.error_history.size(); ++i)
    EXPECT_LE(r.error_history[i], r.error_history[i - 1] + 1e-12)
        << "at iteration " << i;
}

TEST(QuickIk, MoreSpeculationsHelpOnAverage) {
  // Fig. 4's claim is distributional: iteration counts decline as the
  // speculation budget grows.  Per-task monotonicity does NOT hold
  // (the greedy argmin can pick a locally better, globally worse
  // step), so compare batch means: the full 64-way search must clearly
  // beat the single-candidate search (= Eq. 8 alone) over a batch.
  const auto chain = kin::makeSerpentine(50);
  double iters1 = 0.0, iters64 = 0.0;
  for (int i = 0; i < 10; ++i) {
    const auto task = workload::generateTask(chain, i);
    SolveOptions o1;
    o1.speculations = 1;
    SolveOptions o64;
    o64.speculations = 64;
    QuickIkSolver s1(chain, o1);
    QuickIkSolver s64(chain, o64);
    iters1 += s1.solve(task.target, task.seed).iterations;
    iters64 += s64.solve(task.target, task.seed).iterations;
  }
  EXPECT_LT(iters64, iters1);
}

TEST(QuickIk, SpeculationLoadCountsAllCandidates) {
  const auto chain = kin::makeSerpentine(12);
  SolveOptions options;
  options.speculations = 16;
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(chain, 1);
  const auto r = solver.solve(task.target, task.seed);
  ASSERT_TRUE(r.converged());
  EXPECT_EQ(r.speculation_load,
            static_cast<long long>(r.iterations) * 16);
  // FK count: each executed iteration costs one head evaluation plus 16
  // speculative evaluations; a run converging at the selection early
  // exit therefore does iterations * 17 FK passes.
  EXPECT_EQ(r.fk_evaluations, static_cast<long long>(r.iterations) * 17);
}

TEST(QuickIk, HistoryEndsBelowAccuracyWhenConverged) {
  const auto chain = kin::makeSerpentine(12);
  SolveOptions options;
  options.record_history = true;
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(chain, 2);
  const auto r = solver.solve(task.target, task.seed);
  ASSERT_TRUE(r.converged());
  ASSERT_FALSE(r.error_history.empty());
  EXPECT_LT(r.error_history.back(), options.accuracy);
}

TEST(QuickIk, RespectsJointLimitsWhenClamped) {
  // Tight limits: every intermediate candidate must stay inside.
  auto base = kin::makeSerpentine(12);
  std::vector<kin::Joint> joints = base.joints();
  for (auto& j : joints) {
    j.min = -1.0;
    j.max = 1.0;
  }
  const kin::Chain chain(std::move(joints), "limited");
  SolveOptions options;
  options.clamp_to_limits = true;
  options.max_iterations = 300;
  QuickIkSolver solver(chain, options);
  const auto task = workload::generateTask(base, 0);
  const auto r = solver.solve(task.target, chain.zeroConfiguration());
  EXPECT_TRUE(chain.withinLimits(r.theta));
}

TEST(QuickIk, NameReflectsExecution) {
  const auto chain = kin::makePlanar(3);
  EXPECT_EQ(QuickIkSolver(chain, {}).name(), "quick-ik");
}

}  // namespace
}  // namespace dadu::ik
