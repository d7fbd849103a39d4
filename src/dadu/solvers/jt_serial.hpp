// JT-Serial: the *original* Jacobian-transpose method — the paper's
// baseline (references [6, 7]: Wolovich & Elliott 1984, Slotine 1985).
//
// The classical method iterates theta += alpha J^T e with a fixed
// scalar gain alpha chosen once for the robot.  A safe constant must
// respect the stability bound alpha < 2 / lambda_max(JJ^T) at the
// worst (fully stretched) configuration, which forces alpha to shrink
// like 1/N^3 with the DOF count — and that is exactly why the paper's
// Fig. 5a shows the original method needing thousands of iterations at
// high DOF while converging in tens at low DOF.  Quick-IK removes this
// bottleneck by searching the step size every iteration.
//
// The per-iteration Eq. 8 step size alone (without speculation) is the
// separate JtEq8Solver baseline, used by the alpha-strategy ablation.
#pragma once

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class JtSerialSolver final : public JtSolver {
 public:
  /// `gain_c` scales the stability-safe constant (see stabilityGain);
  /// alpha = gain_c / lambda_max(J J^T) at the stretched pose.
  JtSerialSolver(kin::Chain chain, SolveOptions options, double gain_c = 1.9)
      : JtSolver(std::move(chain), options),
        alpha_(stabilityGain(chain_, gain_c)) {}

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "jt-serial"; }
  double alpha() const { return alpha_; }

 private:
  double alpha_;
};

}  // namespace dadu::ik
