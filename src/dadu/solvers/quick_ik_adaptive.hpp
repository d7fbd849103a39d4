// Adaptive-speculation Quick-IK (our future-work extension).
//
// Algorithm 1 spends `Max` FK evaluations per iteration regardless of
// need, but the selector's own output says how much search was useful:
// when the winning candidate is k = Max (the full Eq. 8 step), the
// linearisation was trustworthy and fewer candidates would have done;
// when the winner sits in the interior, the step landscape is curved
// and the search is earning its keep.  This solver adapts the
// speculation count between [min, max] on that signal — halving after
// a run of boundary winners, doubling after interior winners — cutting
// the computation load (Fig. 5b's axis) at equal iteration counts.
// On IKAcc this translates directly to skipped waves.
#pragma once

#include <vector>

#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class QuickIkAdaptiveSolver final : public JtSolver {
 public:
  /// Speculation count stays within [min_speculations,
  /// options.speculations]; it starts at the maximum.
  QuickIkAdaptiveSolver(kin::Chain chain, SolveOptions options,
                        int min_speculations = 8);

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "quick-ik-adaptive"; }

 private:
  int min_spec_;
  // Batched speculation workspace: the kernel is re-shaped to the
  // iteration's speculation count (allocation-free below the maximum,
  // which the constructor warms up).
  kin::BatchedForward batch_;
  std::vector<double> alphas_;
};

}  // namespace dadu::ik
