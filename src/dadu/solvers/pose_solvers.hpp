// Pose (position + orientation) IK solver — the 6-DOF task-space
// extension of the paper's pipeline, behind `dadu pose`.
//
// QuickIkPoseSolver is Algorithm 1 lifted to 6-D task errors: the
// serial head computes J (6 x N), dtheta_base = J^T e and the Eq. 8
// step size with 6-vectors; the speculative search evaluates f(theta_k)
// poses in parallel and selects the argmin of the weighted pose error.
//
// Convergence demands BOTH position and orientation accuracy:
// ||p_t - p|| < accuracy and geodesic angle < angular_accuracy.
#pragma once

#include <vector>

#include "dadu/kinematics/jacobian_full.hpp"
#include "dadu/solvers/types.hpp"

namespace dadu::ik {

struct PoseSolveOptions {
  double accuracy = 1e-2;           ///< metres
  double angular_accuracy = 1e-2;   ///< radians
  /// Metres-per-radian weight folding orientation error into the task
  /// error vector; default treats 1 rad like 0.5 m (a mid-workspace
  /// lever arm for the preset robots).
  double rotation_weight = 0.5;
  int max_iterations = 10'000;
  int speculations = 64;
};

struct PoseSolveResult {
  Status status = Status::kMaxIterations;
  int iterations = 0;
  double position_error = 0.0;   ///< metres
  double angular_error = 0.0;    ///< radians
  linalg::VecX theta;

  bool converged() const { return status == Status::kConverged; }
};

/// Quick-IK in the full 6-D task space.
class QuickIkPoseSolver {
 public:
  QuickIkPoseSolver(kin::Chain chain, PoseSolveOptions options);

  PoseSolveResult solve(const kin::Pose& target, const linalg::VecX& seed);

  const kin::Chain& chain() const { return chain_; }
  const PoseSolveOptions& options() const { return options_; }

 private:
  kin::Chain chain_;
  PoseSolveOptions options_;
  linalg::MatX j_;
  std::vector<linalg::Mat4> frames_;
  std::vector<linalg::VecX> theta_k_;
  std::vector<double> error_k_;
};

}  // namespace dadu::ik
