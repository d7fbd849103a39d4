#include "dadu/kinematics/forward.hpp"

#include <cmath>

namespace dadu::kin {
namespace {

// t := t * {i-1}T_i(q), composed against the DH structure: the matrix's
// exact 0 and 1 entries are never multiplied (33 mul + 24 add instead
// of the dense product's 64 + 48), and t's last row stays [0 0 0 1].
// Each entry accumulates left to right like Mat4::operator*, so the
// result is bit-identical to t * dhTransform(...) up to the sign of
// zero.  The f32 batch walk's advanceJointF32 is the same compose.
void composeJoint(const Chain& chain, std::size_t i, double q,
                  linalg::Mat4& t) {
  const Joint& joint = chain.joint(i);
  const DhParam& p = joint.dh;
  const double* trig = chain.dhTrig() + 4 * i;
  const double ca = trig[0], sa = trig[1];
  double c, s, d;
  if (joint.type == JointType::kRevolute) {
    c = std::cos(p.theta + q);
    s = std::sin(p.theta + q);
    d = p.d;
  } else {
    c = trig[2];
    s = trig[3];
    d = p.d + q;
  }
  const double b01 = -s * ca, b11 = c * ca;
  const double b02 = s * sa, b12 = -c * sa;
  const double b03 = p.a * c, b13 = p.a * s;
  for (std::size_t r = 0; r < 3; ++r) {
    const double o0 = t(r, 0), o1 = t(r, 1), o2 = t(r, 2), o3 = t(r, 3);
    t(r, 0) = o0 * c + o1 * s;
    t(r, 1) = o0 * b01 + o1 * b11 + o2 * sa;
    t(r, 2) = o0 * b02 + o1 * b12 + o2 * ca;
    t(r, 3) = o0 * b03 + o1 * b13 + o2 * d + o3;
  }
}

}  // namespace

linalg::Mat4 forwardKinematics(const Chain& chain, const linalg::VecX& q) {
  chain.requireSize(q);
  linalg::Mat4 t = chain.base();
  for (std::size_t i = 0; i < chain.dof(); ++i) composeJoint(chain, i, q[i], t);
  return t;
}

linalg::Vec3 endEffectorPosition(const Chain& chain, const linalg::VecX& q) {
  return forwardKinematics(chain, q).position();
}

void linkFrames(const Chain& chain, const linalg::VecX& q,
                std::vector<linalg::Mat4>& frames) {
  chain.requireSize(q);
  frames.resize(chain.dof());
  linalg::Mat4 t = chain.base();
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    composeJoint(chain, i, q[i], t);
    frames[i] = t;
  }
}

std::vector<linalg::Mat4> linkFrames(const Chain& chain,
                                     const linalg::VecX& q) {
  std::vector<linalg::Mat4> frames;
  linkFrames(chain, q, frames);
  return frames;
}

long long fkFlops(std::size_t dof) {
  // Per joint: one DH transform build (~2 trig approx 2*10 flops
  // equivalent + 6 mul) and one 4x4 multiply (64 mul + 48 add).  This
  // prices the paper's dense-product FKU, not composeJoint above: it
  // parameterises the Atom/TX1 platform models (Tables 2 and 3), so it
  // keeps the dense count.
  constexpr long long kPerJoint = 20 + 6 + 64 + 48;
  return static_cast<long long>(dof) * kPerJoint;
}

}  // namespace dadu::kin
