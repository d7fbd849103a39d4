// Redundancy resolution by null-space gradient projection.
//
// A high-DOF manipulator (the paper's whole setting) has an
// (N-3)-dimensional self-motion manifold per position target; a
// production solver exploits it to optimise a secondary objective
// without disturbing the end effector:
//
//     dtheta = J^+ e  +  k_ns (I - J^+ J) (-grad H(theta))
//
// The projector (I - J^+ J) is applied matrix-free through the SVD of
// J (project g, subtract V V^T g over the row space).  Built-in
// objectives: stay near a rest posture, and stay centred in the joint
// limits; custom objectives take a gradient callback.
#pragma once

#include <functional>

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {

/// Gradient of the secondary objective H(theta); the solver descends
/// -gradient within the null space.
using ObjectiveGradient =
    std::function<linalg::VecX(const linalg::VecX& theta)>;

/// H = 1/2 ||theta - rest||^2 : pulls towards a preferred posture.
ObjectiveGradient restPostureObjective(linalg::VecX rest);

/// H = sum_i ((theta_i - mid_i) / range_i)^2 for limited joints: pulls
/// towards the centre of the joint limits (unlimited joints ignored).
ObjectiveGradient limitCenteringObjective(const kin::Chain& chain);

class NullSpaceDlsSolver final : public JtSolver {
 public:
  /// `ns_gain` scales the projected secondary step per iteration.
  NullSpaceDlsSolver(kin::Chain chain, SolveOptions options,
                     ObjectiveGradient objective, double ns_gain = 0.2,
                     double lambda = 0.05, double max_task_step = 0.1);

  SolveResult solve(const linalg::Vec3& target,
                    const linalg::VecX& seed) override;
  std::string name() const override { return "dls-nullspace"; }

 private:
  ObjectiveGradient objective_;
  double ns_gain_;
  double lambda_;
  double max_task_step_;
};

}  // namespace dadu::ik
