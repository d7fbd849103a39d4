// J^-1-SVD: pseudoinverse method, the paper's strong serial baseline.
//
// Mirrors the KDL/ROS solver the paper measured: each iteration
// factorises the Jacobian with SVD and takes the Moore-Penrose step
// dtheta = J^+ e.  Converges in few iterations but pays a full SVD per
// iteration — the serial cost the paper's whole design argument rests
// on.  The task-space error is clamped to `max_task_step` per
// iteration, the standard stabilisation (also in KDL) that keeps the
// Newton step inside the linearisation's region of validity.
#pragma once

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

class PinvSvdSolver final : public JtSolver {
 public:
  PinvSvdSolver(kin::Chain chain, SolveOptions options,
                double max_task_step = 0.1)
      : JtSolver(std::move(chain), options), max_task_step_(max_task_step) {}

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "pinv-svd"; }

  /// Total Jacobi sweeps spent in SVD across the last solve — the
  /// quantity the platform models price when estimating the serial
  /// cost of this method on modelled hardware.
  long long lastSvdSweeps() const { return last_svd_sweeps_; }

 private:
  double max_task_step_;
  long long last_svd_sweeps_ = 0;
};

}  // namespace dadu::ik
