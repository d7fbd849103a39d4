// Jacobian transpose with heavy-ball momentum — an alternative
// acceleration of the transpose method that the paper did NOT take,
// included so the ablation can compare "remember the last step"
// (momentum, free on any hardware) against "search the current step"
// (Quick-IK's speculation, which needs the parallel fabric):
//
//     delta_k = alpha J^T e + beta * delta_{k-1};   theta += delta_k
//
// with alpha from Eq. 8 and the classic momentum coefficient beta.
// Momentum damps steepest descent's zig-zag and typically lands
// between jt-eq8 and quick-ik in iteration count.
#pragma once

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class JtMomentumSolver final : public JtSolver {
 public:
  JtMomentumSolver(kin::Chain chain, SolveOptions options, double beta = 0.7)
      : JtSolver(std::move(chain), options), beta_(beta) {}

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "jt-momentum"; }
  double beta() const { return beta_; }

 private:
  double beta_;
};

}  // namespace dadu::ik
