// Joint-weighted damped least squares.
//
// Heterogeneous manipulators move some joints more cheaply than
// others (a torso lift vs a wrist); the weighted pseudoinverse
// minimises ||W^{1/2} dtheta|| instead of ||dtheta||:
//
//     dtheta = W^-1 J^T (J W^-1 J^T + lambda^2 I)^-1 e
//
// with diagonal W (weight_i > 0; larger = joint moves less).  Reduces
// to plain DLS when W = I.
#pragma once

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class WeightedDlsSolver final : public JtSolver {
 public:
  /// `weights` has one positive entry per joint; throws
  /// std::invalid_argument on size mismatch or non-positive weights.
  WeightedDlsSolver(kin::Chain chain, SolveOptions options,
                    linalg::VecX weights, double lambda = 0.1,
                    double max_task_step = 0.1);

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "dls-weighted"; }

 private:
  linalg::VecX inv_weights_;  // 1 / weight_i, precomputed
  double lambda_;
  double max_task_step_;
};

}  // namespace dadu::ik
