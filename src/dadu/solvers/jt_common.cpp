#include "dadu/solvers/jt_common.hpp"

#include <cmath>
#include <stdexcept>

#include "dadu/fault/fault.hpp"

namespace dadu::ik {

JtIterationHead jtIterationHead(const kin::Chain& chain,
                                const linalg::VecX& theta,
                                const linalg::Vec3& target, JtWorkspace& ws) {
  // Every Jacobian-transpose-family solver funnels through this head
  // once per iteration, so one named point lets chaos plans slow down
  // (or blow up) any solve mid-flight — the only way to exercise the
  // cooperative watchdog deterministically.  Disarmed this is a single
  // relaxed atomic load.
  fault::inject("solver.iterate");

  JtIterationHead head;

  linalg::Vec3 ee;
  kin::positionJacobian(chain, theta, ws.j, ws.frames, ee);
  head.error_vec = target - ee;
  head.error = head.error_vec.norm();

  // dtheta_base = J^T e  (Algorithm 1, line 4).
  linalg::mulTransposed3(ws.j, head.error_vec, ws.dtheta_base);

  // alpha_base = (e . JJ^T e) / (JJ^T e . JJ^T e)  (Eq. 8).  JJ^T e is
  // J applied to dtheta_base — no 3x3 matrix is ever materialised,
  // matching the accelerator's streaming JJ^T E accumulation (Eq. 11).
  const linalg::Vec3 jjte = linalg::mul3(ws.j, ws.dtheta_base);
  const double denom = jjte.dot(jjte);
  if (denom > 0.0 && std::isfinite(denom)) {
    head.alpha_base = head.error_vec.dot(jjte) / denom;
  } else {
    head.alpha_base = 0.0;
    head.stalled = head.error > 0.0;
  }
  // A vanished gradient with remaining error also counts as a stall
  // (target in the null-space direction of a singular configuration).
  if (!head.stalled && head.error > 0.0 &&
      ws.dtheta_base.maxAbs() < 1e-300) {
    head.stalled = true;
  }
  return head;
}

double stabilityGain(const kin::Chain& chain, double c) {
  // Lever arm of joint i at full stretch = remaining chain length from
  // joint i to the tip.
  double sum_sq = 0.0;
  double remaining = 0.0;
  for (std::size_t i = chain.dof(); i-- > 0;) {
    const kin::DhParam& p = chain.joint(i).dh;
    remaining += std::abs(p.a) + std::abs(p.d);
    sum_sq += remaining * remaining;
  }
  return sum_sq > 0.0 ? c / sum_sq : c;
}

linalg::Vec3 clampTaskStep(const JtIterationHead& head, double max_step) {
  linalg::Vec3 step = head.error_vec;
  if (max_step > 0.0 && head.error > max_step) step *= max_step / head.error;
  return step;
}

void validateInputs(const kin::Chain& chain, const linalg::Vec3& target,
                    const linalg::VecX& seed) {
  chain.requireSize(seed);
  if (!std::isfinite(target.x) || !std::isfinite(target.y) ||
      !std::isfinite(target.z))
    throw std::invalid_argument("IK target is not finite");
  for (double v : seed)
    if (!std::isfinite(v))
      throw std::invalid_argument("IK seed configuration is not finite");
}

}  // namespace dadu::ik
