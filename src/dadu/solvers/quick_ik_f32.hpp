// Quick-IK with a single-precision speculative datapath.
//
// Models an IKAcc whose Forward Kinematics Units are built from FP32
// arithmetic: the serial head (Jacobian, alpha_base) stays in double —
// it runs once per iteration and would live in the SPU where a wider
// datapath is affordable — while the 64 speculative FK evaluations use
// the float pipeline, as the SSU array would.  The selection argmin
// operates on float-derived errors; the solver's convergence check
// re-measures the chosen candidate in double so the reported accuracy
// is honest.
#pragma once

#include <vector>

#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class QuickIkF32Solver final : public JtSolver {
 public:
  QuickIkF32Solver(kin::Chain chain, SolveOptions options);

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "quick-ik-f32"; }

 private:
  // Batched speculation workspace on the float datapath (candidates
  // and errors stay double, matching the scalar f32 path).
  kin::BatchedForward batch_{kin::BatchedForward::Precision::kF32};
  std::vector<double> alphas_;
  linalg::VecX candidate_;  ///< winner staging, adopted only on improvement
};

}  // namespace dadu::ik
