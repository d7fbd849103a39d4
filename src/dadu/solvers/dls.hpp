// Damped least squares (Levenberg-style), a standard member of the
// inverse-Jacobian family the paper situates itself in.
//
// dtheta = J^T (J J^T + lambda^2 I)^-1 e.  With a 3-D task space the
// inner system is 3x3 and solved by Cholesky, so — unlike the SVD
// pseudoinverse — each iteration is cheap and fully deterministic in
// cost.  Included as the intermediate point between JT (cheapest
// iteration) and J^+-SVD (fewest iterations).
#pragma once

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class DlsSolver final : public JtSolver {
 public:
  DlsSolver(kin::Chain chain, SolveOptions options, double lambda = 0.1,
            double max_task_step = 0.1)
      : JtSolver(std::move(chain), options),
        lambda_(lambda),
        max_task_step_(max_task_step) {}

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "dls"; }
  double lambda() const { return lambda_; }

 private:
  double lambda_;
  double max_task_step_;
};

}  // namespace dadu::ik
