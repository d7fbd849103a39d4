#include "dadu/solvers/jt_momentum.hpp"

namespace dadu::ik {

SolveResult JtMomentumSolver::solve(const linalg::Vec3& target,
                                    const linalg::VecX& seed) {
  linalg::VecX velocity(chain_.dof());
  // A vanished gradient ends the solve only once the velocity has died
  // out too: momentum can still carry theta across a stationary point.
  const auto stalls = [&velocity](const JtIterationHead& head) {
    return head.stalled && velocity.maxAbs() < 1e-300;
  };
  return iterate(
      target, seed, stalls,
      [this, &velocity](const JtIterationHead& head, SolveResult& result) {
        // velocity = beta * velocity + alpha * J^T e; theta += velocity.
        velocity *= beta_;
        if (!head.stalled)
          linalg::axpy(head.alpha_base, ws_.dtheta_base, velocity);
        result.theta += velocity;
        return moved(result);
      });
}

}  // namespace dadu::ik
