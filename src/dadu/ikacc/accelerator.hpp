// IKAcc: the paper's accelerator (Fig. 2), simulated at cycle level.
//
// Functionally the accelerator executes exactly Quick-IK (Algorithm 1)
// — the test suite asserts bit-identical joint trajectories against
// the software QuickIkSolver — while the simulator additionally
// accounts cycles, operation counts, energy and unit utilisation per
// the SPU / SSU / Scheduler / Selector decomposition:
//
//   per iteration:
//     SPU pipeline           (serial head: J, dtheta_base, alpha_base)
//     for each wave:         (ceil(Max / num_ssus) waves)
//       broadcast            (Parallel Search Scheduler)
//       SSU speculation      (all active SSUs in lockstep)
//       selector reduction   (Parameter Selector argmin)
//
// Time = cycles / frequency; energy = per-op dynamic + leakage.
#pragma once

#include "dadu/ikacc/config.hpp"
#include "dadu/ikacc/stats.hpp"
#include "dadu/ikacc/trace.hpp"
#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/solvers/jt_common.hpp"

namespace dadu::acc {

class IkAccelerator final : public ik::JtSolver {
 public:
  IkAccelerator(kin::Chain chain, ik::SolveOptions options,
                AccConfig config = {});

  ik::SolveResult solve(const linalg::Vec3& target,
                        const linalg::VecX& seed) override;
  std::string name() const override { return "ikacc"; }

  const AccConfig& config() const { return config_; }
  /// Cycle/energy accounting of the most recent solve().
  const AccStats& lastStats() const { return stats_; }
  /// Per-iteration execution trace of the most recent solve().
  const SolveTrace& lastTrace() const { return trace_; }

 private:
  AccConfig config_;
  AccStats stats_;
  SolveTrace trace_;

  // The SSUs' functional model: the same batched speculation kernel the
  // software solver runs, evaluated one wave's lane range at a time.
  kin::BatchedForward batch_;
  std::vector<double> alphas_;
};

}  // namespace dadu::acc
