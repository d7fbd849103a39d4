#include "dadu/kinematics/jacobian.hpp"

#include "dadu/kinematics/forward.hpp"

namespace dadu::kin {

void positionJacobian(const Chain& chain, const linalg::VecX& q,
                      linalg::MatX& j, std::vector<linalg::Mat4>& frames,
                      linalg::Vec3& ee) {
  chain.requireSize(q);
  const std::size_t n = chain.dof();
  if (j.rows() != 3 || j.cols() != n) j = linalg::MatX(3, n);

  linkFrames(chain, q, frames);
  ee = frames.back().position();

  for (std::size_t i = 0; i < n; ++i) {
    // Axis and origin of joint i are those of the *previous* frame
    // (the joint rotates about z_{i-1}): base frame for i = 0.
    const linalg::Mat4& prev = i == 0 ? chain.base() : frames[i - 1];
    const linalg::Vec3 z = prev.rotation().col(2);
    if (chain.joint(i).type == JointType::kRevolute) {
      const linalg::Vec3 p = prev.position();
      j.setCol3(i, z.cross(ee - p));
    } else {
      j.setCol3(i, z);
    }
  }
}

linalg::MatX positionJacobian(const Chain& chain, const linalg::VecX& q) {
  linalg::MatX j;
  std::vector<linalg::Mat4> frames;
  linalg::Vec3 ee;
  positionJacobian(chain, q, j, frames, ee);
  return j;
}

linalg::MatX finiteDifferenceJacobian(const Chain& chain,
                                      const linalg::VecX& q, double h) {
  chain.requireSize(q);
  const std::size_t n = chain.dof();
  linalg::MatX j(3, n);
  linalg::VecX qp = q;
  for (std::size_t i = 0; i < n; ++i) {
    const double orig = qp[i];
    qp[i] = orig + h;
    const linalg::Vec3 fp = endEffectorPosition(chain, qp);
    qp[i] = orig - h;
    const linalg::Vec3 fm = endEffectorPosition(chain, qp);
    qp[i] = orig;
    j.setCol3(i, (fp - fm) / (2.0 * h));
  }
  return j;
}

long long jacobianFlops(std::size_t dof) {
  // Per joint: DH transform (~26), 4x4 multiply (112), cross product
  // (9), J_i J_i^T E accumulation (~18) — the four pipeline stages of
  // the paper's Fig. 3.  The dense 112 stays although linkFrames now
  // composes in 57: this count parameterises the paper's Atom/TX1
  // platform models (Tables 2 and 3).
  constexpr long long kPerJoint = 26 + 112 + 9 + 18;
  return static_cast<long long>(dof) * kPerJoint;
}

}  // namespace dadu::kin
