#include "dadu/kinematics/jacobian.hpp"

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/dh.hpp"
#include "dadu/kinematics/forward.hpp"

namespace dadu::kin {

void positionJacobian(const Chain& chain, const linalg::VecX& q,
                      linalg::MatX& j, JacobianScratch& scratch,
                      linalg::Vec3& ee) {
  chain.requireSize(q);
  const std::size_t n = chain.dof();
  if (j.rows() != 3 || j.cols() != n) j = linalg::MatX(3, n);
  scratch.trig.resize(3 * n);
  scratch.frame.resize(6 * n);
  double* angle = scratch.trig.data();
  double* sin_t = angle + n;
  double* cos_t = angle + 2 * n;
  double* zx = scratch.frame.data();
  double* zy = zx + n;
  double* zz = zx + 2 * n;
  double* px = zx + 3 * n;
  double* py = zx + 4 * n;
  double* pz = zx + 5 * n;

  // 1. Trig prepass.  Prismatic joints' angles are formed too and never
  // read: they take the fixed Chain::dhTrig() values below.
  for (std::size_t i = 0; i < n; ++i)
    angle[i] = chain.joint(i).dh.theta + q[i];
  dispatchedSpecBackend().sinCos(angle, sin_t, cos_t, n);

  // 2. Compose base to tip; joint i's axis and origin are those of the
  // frame before it (the base for i = 0).
  const double* dh_trig = chain.dhTrig();
  linalg::Mat4 t = chain.base();
  for (std::size_t i = 0; i < n; ++i) {
    zx[i] = t(0, 2);
    zy[i] = t(1, 2);
    zz[i] = t(2, 2);
    px[i] = t(0, 3);
    py[i] = t(1, 3);
    pz[i] = t(2, 3);
    const Joint& joint = chain.joint(i);
    const double* trig = dh_trig + 4 * i;
    if (joint.type == JointType::kRevolute)
      composeDh(t, cos_t[i], sin_t[i], trig[0], trig[1], joint.dh.a,
                joint.dh.d);
    else
      composeDh(t, trig[2], trig[3], trig[0], trig[1], joint.dh.a,
                joint.dh.d + q[i]);
  }
  ee = t.position();

  // 3. Columns z x (ee - p) in Vec3::cross's order, then the prismatic
  // columns z.
  double* j0 = j.rowPtr(0);
  double* j1 = j.rowPtr(1);
  double* j2 = j.rowPtr(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = ee.x - px[i], dy = ee.y - py[i], dz = ee.z - pz[i];
    j0[i] = zy[i] * dz - zz[i] * dy;
    j1[i] = zz[i] * dx - zx[i] * dz;
    j2[i] = zx[i] * dy - zy[i] * dx;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (chain.joint(i).type == JointType::kRevolute) continue;
    j0[i] = zx[i];
    j1[i] = zy[i];
    j2[i] = zz[i];
  }
}

linalg::MatX positionJacobian(const Chain& chain, const linalg::VecX& q) {
  linalg::MatX j;
  JacobianScratch scratch;
  linalg::Vec3 ee;
  positionJacobian(chain, q, j, scratch, ee);
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
  // the paper's Fig. 3.  The dense 112 stays although positionJacobian
  // composes in 57 (composeDh): this count parameterises the paper's
  // Atom/TX1 platform models (Tables 2 and 3).
  constexpr long long kPerJoint = 26 + 112 + 9 + 18;
  return static_cast<long long>(dof) * kPerJoint;
}

}  // namespace dadu::kin
