#include "dadu/solvers/pinv_svd.hpp"

#include "dadu/linalg/pseudoinverse.hpp"
#include "dadu/linalg/svd.hpp"

namespace dadu::ik {

SolveResult PinvSvdSolver::solve(const linalg::Vec3& target,
                                 const linalg::VecX& seed) {
  last_svd_sweeps_ = 0;
  return iterate(
      target, seed, neverStallsAtHead,
      [this](const JtIterationHead& head, SolveResult& result) {
        // Clamp the task-space step so the linearisation stays valid.
        const linalg::Vec3 step = clampTaskStep(head, max_task_step_);

        const linalg::Svd svd = linalg::svdJacobi(ws_.j);
        last_svd_sweeps_ += svd.sweeps;
        const linalg::VecX e_vec{step.x, step.y, step.z};
        const linalg::VecX dtheta = linalg::pseudoinverseSolve(svd, e_vec);

        // Rank-0 Jacobian: no progress possible.
        if (dtheta.maxAbs() < 1e-300) return StepOutcome::kStalled;

        result.theta += dtheta;
        return moved(result);
      });
}

}  // namespace dadu::ik
