#include "dadu/solvers/ccd.hpp"

#include <cmath>

#include "dadu/kinematics/forward.hpp"

namespace dadu::ik {

SolveResult CcdSolver::solve(const linalg::Vec3& target,
                             const linalg::VecX& seed) {
  validateInputs(chain_, target, seed);

  const std::size_t n = chain_.dof();
  SolveResult result;
  result.theta = seed;

  kin::linkFrames(chain_, result.theta, frames_);
  linalg::Vec3 ee = frames_.back().position();
  result.error = (target - ee).norm();

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (options_.record_history) result.error_history.push_back(result.error);
    if (result.error < options_.accuracy) {
      result.status = Status::kConverged;
      return result;
    }
    if (options_.hasDeadline() && clockNow() >= options_.deadline) {
      result.status = Status::kTimedOut;
      return result;
    }

    // One sweep: end-effector side towards the base.
    for (std::size_t idx = n; idx-- > 0;) {
      const kin::Joint& joint = chain_.joint(idx);
      if (joint.type != kin::JointType::kRevolute) continue;

      const linalg::Mat4& prev =
          idx == 0 ? chain_.base() : frames_[idx - 1];
      const linalg::Vec3 axis = prev.rotation().col(2);
      const linalg::Vec3 pivot = prev.position();

      // Project both vectors into the plane perpendicular to the axis.
      linalg::Vec3 to_ee = ee - pivot;
      linalg::Vec3 to_t = target - pivot;
      to_ee -= axis * to_ee.dot(axis);
      to_t -= axis * to_t.dot(axis);
      const double len_ee = to_ee.norm();
      const double len_t = to_t.norm();
      if (len_ee < 1e-12 || len_t < 1e-12) continue;  // on-axis: no effect

      // Optimal rotation of this joint alone.
      const double delta =
          std::atan2(axis.dot(to_ee.cross(to_t)), to_ee.dot(to_t));
      double q = result.theta[idx] + delta;
      if (options_.clamp_to_limits) q = joint.clamp(q);
      result.theta[idx] = q;

      // Refresh frames from this joint outward (cheap prefix reuse).
      linalg::Mat4 t = idx == 0 ? chain_.base() : frames_[idx - 1];
      for (std::size_t i = idx; i < n; ++i) {
        t = t * chain_.joint(i).transform(result.theta[i]);
        frames_[i] = t;
      }
      ee = frames_.back().position();
      ++result.fk_evaluations;
    }

    result.error = (target - ee).norm();
    ++result.iterations;
    ++result.speculation_load;
  }

  result.status = result.error < options_.accuracy ? Status::kConverged
                                                   : Status::kMaxIterations;
  return result;
}

}  // namespace dadu::ik
