#include "dadu/solvers/dls_weighted.hpp"

#include <cmath>
#include <stdexcept>

#include "dadu/linalg/cholesky.hpp"

namespace dadu::ik {

WeightedDlsSolver::WeightedDlsSolver(kin::Chain chain, SolveOptions options,
                                     linalg::VecX weights, double lambda,
                                     double max_task_step)
    : JtSolver(std::move(chain), options),
      inv_weights_(weights.size()),
      lambda_(lambda),
      max_task_step_(max_task_step) {
  if (weights.size() != chain_.dof())
    throw std::invalid_argument("WeightedDls: weight count != dof");
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] > 0.0) || !std::isfinite(weights[i]))
      throw std::invalid_argument("WeightedDls: weights must be positive");
    inv_weights_[i] = 1.0 / weights[i];
  }
}

SolveResult WeightedDlsSolver::solve(const linalg::Vec3& target,
                                     const linalg::VecX& seed) {
  return iterate(
      target, seed, neverStallsAtHead,
      [this](const JtIterationHead& head, SolveResult& result) {
        const linalg::Vec3 step = clampTaskStep(head, max_task_step_);

        // A = J W^-1 J^T + lambda^2 I  (3x3): accumulate column-wise.
        linalg::Mat3 g = linalg::Mat3::zero();
        for (std::size_t c = 0; c < chain_.dof(); ++c) {
          const linalg::Vec3 col = ws_.j.col3(c);
          g += linalg::Mat3::outer(col, col) * inv_weights_[c];
        }
        linalg::MatX a(3, 3);
        for (std::size_t r = 0; r < 3; ++r)
          for (std::size_t c = 0; c < 3; ++c) a(r, c) = g(r, c);
        for (std::size_t d = 0; d < 3; ++d) a(d, d) += lambda_ * lambda_;

        const auto y = linalg::choleskySolve(a, {step.x, step.y, step.z});
        if (!y) return StepOutcome::kStalled;
        // dtheta = W^-1 J^T y.
        linalg::VecX dtheta;
        linalg::mulTransposed3(ws_.j, {(*y)[0], (*y)[1], (*y)[2]}, dtheta);
        for (std::size_t i = 0; i < dtheta.size(); ++i)
          dtheta[i] *= inv_weights_[i];

        result.theta += dtheta;
        return moved(result);
      });
}

}  // namespace dadu::ik
