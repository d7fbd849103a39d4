// Batch-throughput model tests.
#include <gtest/gtest.h>

#include "dadu/ikacc/accelerator.hpp"
#include "dadu/ikacc/throughput.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/workload/rng.hpp"

namespace dadu::acc {
namespace {

linalg::VecX randomConfig(std::size_t n, std::uint64_t seed) {
  workload::Rng rng(seed);
  linalg::VecX q(n);
  for (std::size_t i = 0; i < n; ++i) q[i] = rng.angle();
  return q;
}

TEST(Throughput, DegenerateInputsGiveZero) {
  const AccConfig cfg;
  EXPECT_DOUBLE_EQ(estimateBatchThroughput(cfg, 0, 64, 10).overlap_speedup,
                   1.0);
  EXPECT_DOUBLE_EQ(
      estimateBatchThroughput(cfg, 25, 64, 0.0).solves_per_sec_single, 0.0);
}

TEST(Throughput, SpeedupBetweenOneAndTwo) {
  const AccConfig cfg;
  for (std::size_t dof : {12u, 50u, 100u}) {
    const auto est = estimateBatchThroughput(cfg, dof, 64, 50.0);
    EXPECT_GT(est.overlap_speedup, 1.0) << dof;
    EXPECT_LE(est.overlap_speedup, 2.0) << dof;
    EXPECT_GT(est.solves_per_sec_pipelined, est.solves_per_sec_single);
    EXPECT_NEAR(est.solves_per_sec_pipelined,
                est.solves_per_sec_single * est.overlap_speedup,
                1e-6 * est.solves_per_sec_pipelined);
  }
}

TEST(Throughput, PipelinedBoundIsMaxOfPhases) {
  const AccConfig cfg;
  const auto est = estimateBatchThroughput(cfg, 50, 64, 10.0);
  EXPECT_DOUBLE_EQ(
      est.pipelined_iter_cycles,
      std::max(est.single_iter_cycles - est.pipelined_iter_cycles,
               est.pipelined_iter_cycles));
  // single = spu + waves, pipelined = max(spu, waves):
  // spu = single - waves <= pipelined always.
  EXPECT_LE(est.single_iter_cycles - est.pipelined_iter_cycles,
            est.pipelined_iter_cycles);
}

TEST(Throughput, MatchesSolveSimulatorPerIterationCost) {
  // The analytic single-problem per-iteration cost must equal what the
  // solve simulator charges per full iteration.
  const std::size_t dof = 50;
  const auto chain = kin::makeSerpentine(dof);
  ik::SolveOptions options;
  options.max_iterations = 1;
  options.accuracy = 1e-15;
  IkAccelerator sim(chain, options);
  (void)sim.solve({0.9, 0.4, 0.2}, randomConfig(dof, 3));
  const long long sim_cycles = sim.lastStats().total_cycles;

  const auto est = estimateBatchThroughput(AccConfig{}, dof, 64, 1.0);
  // One non-converged iteration = one SPU pass + the wave train,
  // exactly the analytic single-problem iteration.
  EXPECT_NEAR(static_cast<double>(sim_cycles), est.single_iter_cycles, 1.0);
}

}  // namespace
}  // namespace dadu::acc
