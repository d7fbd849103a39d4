#include "dadu/solvers/dls.hpp"

#include "dadu/linalg/cholesky.hpp"

namespace dadu::ik {

SolveResult DlsSolver::solve(const linalg::Vec3& target,
                             const linalg::VecX& seed) {
  return iterate(
      target, seed, neverStallsAtHead,
      [this](const JtIterationHead& head, SolveResult& result) {
        const linalg::Vec3 step = clampTaskStep(head, max_task_step_);

        // (J J^T + lambda^2 I) y = e, then dtheta = J^T y.
        const linalg::Mat3 g = linalg::gram3(ws_.j);
        linalg::MatX a(3, 3);
        for (std::size_t r = 0; r < 3; ++r)
          for (std::size_t c = 0; c < 3; ++c) a(r, c) = g(r, c);
        for (std::size_t d = 0; d < 3; ++d) a(d, d) += lambda_ * lambda_;

        const auto y = linalg::choleskySolve(a, {step.x, step.y, step.z});
        // JJ^T + lambda^2 I is SPD by construction; failure means NaN.
        if (!y) return StepOutcome::kStalled;
        linalg::VecX dtheta;
        linalg::mulTransposed3(ws_.j, {(*y)[0], (*y)[1], (*y)[2]}, dtheta);

        result.theta += dtheta;
        return moved(result);
      });
}

}  // namespace dadu::ik
