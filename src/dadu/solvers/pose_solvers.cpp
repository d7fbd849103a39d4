#include "dadu/solvers/pose_solvers.hpp"

#include <cmath>
#include <stdexcept>

#include "dadu/solvers/jt_common.hpp"

namespace dadu::ik {
namespace {

struct PoseErrors {
  linalg::VecX e;      // weighted 6-vector
  double pos = 0.0;    // metres
  double ang = 0.0;    // radians
};

PoseErrors measure(const kin::Pose& current, const kin::Pose& target,
                   double rotation_weight) {
  PoseErrors out;
  out.e = kin::poseError(current, target, rotation_weight);
  out.pos = linalg::Vec3{out.e[0], out.e[1], out.e[2]}.norm();
  out.ang = rotation_weight > 0.0
                ? linalg::Vec3{out.e[3], out.e[4], out.e[5]}.norm() /
                      rotation_weight
                : 0.0;
  return out;
}

bool withinAccuracy(const PoseErrors& err, const PoseSolveOptions& o) {
  return err.pos < o.accuracy && err.ang < o.angular_accuracy;
}

/// Weighted error norm the speculative selector minimises.
double selectionNorm(const PoseErrors& err, const PoseSolveOptions& o) {
  const double w = o.rotation_weight;
  return std::sqrt(err.pos * err.pos + (err.ang * w) * (err.ang * w));
}

}  // namespace

QuickIkPoseSolver::QuickIkPoseSolver(kin::Chain chain, PoseSolveOptions options)
    : chain_(std::move(chain)), options_(options) {
  if (options_.speculations < 1)
    throw std::invalid_argument("QuickIkPose requires at least 1 speculation");
  theta_k_.assign(options_.speculations, linalg::VecX(chain_.dof()));
  error_k_.assign(options_.speculations, 0.0);
}

PoseSolveResult QuickIkPoseSolver::solve(const kin::Pose& target,
                                         const linalg::VecX& seed) {
  validateInputs(chain_, target.position, seed);

  const int max_spec = options_.speculations;
  PoseSolveResult result;
  result.theta = seed;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    kin::Pose current;
    kin::fullJacobian(chain_, result.theta, j_, frames_, current);
    const PoseErrors err = measure(current, target, options_.rotation_weight);
    result.position_error = err.pos;
    result.angular_error = err.ang;

    if (withinAccuracy(err, options_)) {
      result.status = Status::kConverged;
      return result;
    }

    // Serial head: dtheta_base = J^T e; alpha_base per Eq. 8 with the
    // 6-vector error (JJ^T e is 6-dimensional).
    const linalg::VecX dtheta_base = j_.applyTransposed(err.e);
    const linalg::VecX jjte = j_ * dtheta_base;
    const double denom = jjte.dot(jjte);
    if (!(denom > 0.0) || dtheta_base.maxAbs() < 1e-300) {
      result.status = Status::kStalled;
      return result;
    }
    const double alpha_base = err.e.dot(jjte) / denom;

    // Speculative search over (0, alpha_base] (Eq. 9).
    for (int k = 1; k <= max_spec; ++k) {
      const double alpha_k =
          (static_cast<double>(k) / max_spec) * alpha_base;
      linalg::axpyInto(alpha_k, dtheta_base, result.theta, theta_k_[k - 1]);
      const kin::Pose pose_k = kin::endEffectorPose(chain_, theta_k_[k - 1]);
      error_k_[k - 1] =
          selectionNorm(measure(pose_k, target, options_.rotation_weight),
                        options_);
    }
    ++result.iterations;

    std::size_t best = 0;
    for (std::size_t idx = 1; idx < static_cast<std::size_t>(max_spec); ++idx)
      if (error_k_[idx] < error_k_[best]) best = idx;
    result.theta = theta_k_[best];
  }

  // Final measurement for honest reporting.
  const PoseErrors err = measure(kin::endEffectorPose(chain_, result.theta),
                                 target, options_.rotation_weight);
  result.position_error = err.pos;
  result.angular_error = err.ang;
  result.status = withinAccuracy(err, options_) ? Status::kConverged
                                                : Status::kMaxIterations;
  return result;
}

}  // namespace dadu::ik
