// End-to-end accelerator tests: functional equivalence with software
// Quick-IK, cycle accounting invariants, power/energy plausibility and
// configuration sweeps.
#include <gtest/gtest.h>

#include "dadu/ikacc/accelerator.hpp"
#include "dadu/ikacc/scheduler.hpp"
#include "dadu/ikacc/spu.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::acc {
namespace {

TEST(IkAccelerator, RejectsInvalidConfig) {
  const auto chain = kin::makeSerpentine(12);
  ik::SolveOptions options;
  options.speculations = 0;
  EXPECT_THROW(IkAccelerator(chain, options), std::invalid_argument);
  AccConfig cfg;
  cfg.num_ssus = 0;
  EXPECT_THROW(IkAccelerator(chain, ik::SolveOptions{}, cfg),
               std::invalid_argument);
}

class AcceleratorEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AcceleratorEquivalence, BitIdenticalToSoftwareQuickIk) {
  // The accelerator is Quick-IK in hardware: same iterate trajectory,
  // same iteration count, same final joint vector — regardless of how
  // the scheduler chops speculations into waves.
  const std::size_t dof = GetParam();
  const auto chain = kin::makeSerpentine(dof);
  ik::SolveOptions options;
  ik::QuickIkSolver software(chain, options);
  IkAccelerator hardware(chain, options);

  for (int t = 0; t < 3; ++t) {
    const auto task = workload::generateTask(chain, t);
    const auto sw = software.solve(task.target, task.seed);
    const auto hw = hardware.solve(task.target, task.seed);
    EXPECT_EQ(sw.iterations, hw.iterations) << "dof " << dof << " task " << t;
    EXPECT_EQ(sw.status, hw.status);
    EXPECT_EQ(sw.theta, hw.theta) << "functional equivalence must be exact";
    EXPECT_DOUBLE_EQ(sw.error, hw.error);
    EXPECT_EQ(sw.speculation_load, hw.speculation_load);
  }
}

INSTANTIATE_TEST_SUITE_P(DofLadder, AcceleratorEquivalence,
                         ::testing::Values(12, 25, 50, 100));

TEST(IkAccelerator, EquivalenceHoldsAcrossSsuCounts) {
  const auto chain = kin::makeSerpentine(25);
  ik::SolveOptions options;
  ik::QuickIkSolver software(chain, options);
  const auto task = workload::generateTask(chain, 1);
  const auto sw = software.solve(task.target, task.seed);

  for (std::size_t ssus : {1u, 7u, 32u, 64u, 200u}) {
    AccConfig cfg;
    cfg.num_ssus = ssus;
    IkAccelerator hw(chain, options, cfg);
    const auto r = hw.solve(task.target, task.seed);
    EXPECT_EQ(r.theta, sw.theta) << ssus << " SSUs";
    EXPECT_EQ(r.iterations, sw.iterations);
    // theta is a candidate vector, which the walk's trig never touches;
    // the error is where a wave-dependent walk would show.
    EXPECT_EQ(r.error, sw.error) << ssus << " SSUs";
  }
}

TEST(IkAccelerator, WavesMatchSchedulerFormula) {
  const auto chain = kin::makeSerpentine(12);
  ik::SolveOptions options;  // 64 speculations
  for (std::size_t ssus : {8u, 32u, 64u, 100u}) {
    AccConfig cfg;
    cfg.num_ssus = ssus;
    IkAccelerator hw(chain, options, cfg);
    const auto task = workload::generateTask(chain, 0);
    (void)hw.solve(task.target, task.seed);
    EXPECT_EQ(hw.lastStats().waves_per_iteration,
              static_cast<int>(waveCount(64, ssus)));
  }
}

TEST(IkAccelerator, CycleAccountingIsConsistent) {
  const auto chain = kin::makeSerpentine(50);
  ik::SolveOptions options;
  IkAccelerator hw(chain, options);
  const auto task = workload::generateTask(chain, 0);
  const auto r = hw.solve(task.target, task.seed);
  ASSERT_TRUE(r.converged());
  const AccStats& s = hw.lastStats();

  // The four tracked components sum to the total.
  EXPECT_EQ(s.total_cycles, s.spu_cycles + s.ssu_cycles + s.scheduler_cycles +
                                s.selector_cycles);
  // Iterations recorded by the stats match the solver result.
  EXPECT_EQ(s.iterations, r.iterations);
  // Every head is one SPU pass: the FK evaluations that are not
  // speculative searches.
  const SpuCost spu = spuIteration(AccConfig{}, chain.dof());
  EXPECT_EQ(s.spu_cycles,
            spu.cycles * (r.fk_evaluations - r.speculation_load));
  // Time = cycles / frequency.
  EXPECT_NEAR(s.time_ms, static_cast<double>(s.total_cycles) * 1e-6, 1e-12);
  // Utilisation is a fraction.
  EXPECT_GT(s.ssuUtilization(32), 0.0);
  EXPECT_LE(s.ssuUtilization(32), 1.0);

  // A zero budget still measures the seed: exactly one SPU pass.
  options.max_iterations = 0;
  IkAccelerator idle(chain, options);
  const auto r0 = idle.solve(task.target, task.seed);
  const AccStats& s0 = idle.lastStats();
  EXPECT_EQ(r0.fk_evaluations, 1);
  EXPECT_EQ(s0.spu_cycles, spu.cycles);
  EXPECT_EQ(s0.total_cycles, spu.cycles);
}

TEST(IkAccelerator, EnergyBreakdownPositiveAndBounded) {
  const auto chain = kin::makeSerpentine(100);
  ik::SolveOptions options;
  IkAccelerator hw(chain, options);
  const auto task = workload::generateTask(chain, 0);
  (void)hw.solve(task.target, task.seed);
  const AccStats& s = hw.lastStats();

  EXPECT_GT(s.dynamic_energy_mj, 0.0);
  EXPECT_GT(s.leakage_energy_mj, 0.0);
  // Average power should land in the paper's regime: well under a
  // watt, above pure leakage.
  EXPECT_GT(s.avg_power_mw, hw.config().leakage_mw);
  EXPECT_LT(s.avg_power_mw, 1000.0);
}

TEST(IkAccelerator, MoreSsusNeverSlower) {
  const auto chain = kin::makeSerpentine(50);
  ik::SolveOptions options;
  const auto task = workload::generateTask(chain, 2);
  long long prev_cycles = -1;
  for (std::size_t ssus : {8u, 16u, 32u, 64u}) {
    AccConfig cfg;
    cfg.num_ssus = ssus;
    IkAccelerator hw(chain, options, cfg);
    (void)hw.solve(task.target, task.seed);
    const long long cycles = hw.lastStats().total_cycles;
    if (prev_cycles >= 0) {
      EXPECT_LE(cycles, prev_cycles) << ssus;
    }
    prev_cycles = cycles;
  }
}

TEST(IkAccelerator, HigherFrequencyShortensTimeNotCycles) {
  const auto chain = kin::makeSerpentine(25);
  ik::SolveOptions options;
  const auto task = workload::generateTask(chain, 0);

  AccConfig slow;
  slow.freq_ghz = 1.0;
  AccConfig fast = slow;
  fast.freq_ghz = 2.0;
  IkAccelerator a(chain, options, slow);
  IkAccelerator b(chain, options, fast);
  (void)a.solve(task.target, task.seed);
  (void)b.solve(task.target, task.seed);
  EXPECT_EQ(a.lastStats().total_cycles, b.lastStats().total_cycles);
  EXPECT_NEAR(a.lastStats().time_ms, 2.0 * b.lastStats().time_ms, 1e-12);
}

TEST(IkAccelerator, SolveTimeMsPaperScale) {
  // The paper's headline: ~12 ms for a 100-DOF solve at 1 GHz.  Our
  // iteration counts differ from theirs, so assert the decade, not the
  // digit: well under 100 ms and over 1 us.
  const auto chain = kin::makeSerpentine(100);
  ik::SolveOptions options;
  IkAccelerator hw(chain, options);
  const auto task = workload::generateTask(chain, 1);
  const auto r = hw.solve(task.target, task.seed);
  ASSERT_TRUE(r.converged());
  EXPECT_LT(hw.lastStats().time_ms, 100.0);
  EXPECT_GT(hw.lastStats().time_ms, 0.001);
}

TEST(IkAccelerator, StatsResetBetweenSolves) {
  const auto chain = kin::makeSerpentine(12);
  ik::SolveOptions options;
  IkAccelerator hw(chain, options);
  const auto t0 = workload::generateTask(chain, 0);
  const auto t1 = workload::generateTask(chain, 1);
  (void)hw.solve(t0.target, t0.seed);
  const long long first = hw.lastStats().total_cycles;
  (void)hw.solve(t1.target, t1.seed);
  const long long second = hw.lastStats().total_cycles;
  // Stats describe a single solve, not a running total: a second solve
  // of similar difficulty must not report the sum.
  EXPECT_LT(second, 2 * first);
  (void)hw.solve(t0.target, t0.seed);
  EXPECT_EQ(hw.lastStats().total_cycles, first);
}

}  // namespace
}  // namespace dadu::acc
