#include "dadu/solvers/nullspace.hpp"

#include <cmath>
#include <stdexcept>

#include "dadu/linalg/pseudoinverse.hpp"
#include "dadu/linalg/svd.hpp"

namespace dadu::ik {

ObjectiveGradient restPostureObjective(linalg::VecX rest) {
  return [rest = std::move(rest)](const linalg::VecX& theta) {
    return theta - rest;
  };
}

ObjectiveGradient limitCenteringObjective(const kin::Chain& chain) {
  // Precompute midpoints and ranges for the limited joints.
  linalg::VecX mid(chain.dof());
  linalg::VecX inv_range_sq(chain.dof());
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const kin::Joint& j = chain.joint(i);
    if (j.hasLimits() && std::isfinite(j.min) && std::isfinite(j.max) &&
        j.max > j.min) {
      mid[i] = (j.min + j.max) / 2.0;
      const double range = j.max - j.min;
      inv_range_sq[i] = 1.0 / (range * range);
    } else {
      inv_range_sq[i] = 0.0;  // unlimited joint: no pull
    }
  }
  return [mid, inv_range_sq](const linalg::VecX& theta) {
    linalg::VecX g(theta.size());
    for (std::size_t i = 0; i < theta.size(); ++i)
      g[i] = 2.0 * (theta[i] - mid[i]) * inv_range_sq[i];
    return g;
  };
}

NullSpaceDlsSolver::NullSpaceDlsSolver(kin::Chain chain, SolveOptions options,
                                       ObjectiveGradient objective,
                                       double ns_gain, double lambda,
                                       double max_task_step)
    : JtSolver(std::move(chain), options),
      objective_(std::move(objective)),
      ns_gain_(ns_gain),
      lambda_(lambda),
      max_task_step_(max_task_step) {
  if (!objective_)
    throw std::invalid_argument("NullSpaceDlsSolver: null objective");
}

SolveResult NullSpaceDlsSolver::solve(const linalg::Vec3& target,
                                      const linalg::VecX& seed) {
  return iterate(
      target, seed, neverStallsAtHead,
      [this](const JtIterationHead& head, SolveResult& result) {
        const linalg::Vec3 step = clampTaskStep(head, max_task_step_);

        // Primary task: damped pseudoinverse step.
        const linalg::Svd svd = linalg::svdJacobi(ws_.j);
        const linalg::VecX dtheta_task =
            linalg::dampedSolve(svd, {step.x, step.y, step.z}, lambda_);

        // Secondary task: -grad H projected into the null space of J.
        // (I - V V^T) g where V spans J's row space (numerically nonzero
        // singular directions).
        const linalg::VecX g = objective_(result.theta);
        if (g.size() != chain_.dof())
          throw std::invalid_argument(
              "NullSpaceDlsSolver: objective gradient has wrong size");
        linalg::VecX projected = g;
        const std::size_t rank = svd.rank();
        for (std::size_t k = 0; k < rank; ++k) {
          double coeff = 0.0;
          for (std::size_t i = 0; i < g.size(); ++i)
            coeff += svd.v(i, k) * g[i];
          for (std::size_t i = 0; i < g.size(); ++i)
            projected[i] -= coeff * svd.v(i, k);
        }

        result.theta += dtheta_task;
        linalg::axpy(-ns_gain_, projected, result.theta);
        return moved(result);
      });
}

}  // namespace dadu::ik
