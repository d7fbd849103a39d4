#include "dadu/kinematics/forward.hpp"

#include <cmath>

namespace dadu::kin {
namespace {

// t := t * {i-1}T_i(q) with libm trig (composeDh).
void composeJoint(const Chain& chain, std::size_t i, double q,
                  linalg::Mat4& t) {
  const Joint& joint = chain.joint(i);
  const DhParam& p = joint.dh;
  const double* trig = chain.dhTrig() + 4 * i;
  if (joint.type == JointType::kRevolute)
    composeDh(t, std::cos(p.theta + q), std::sin(p.theta + q), trig[0],
              trig[1], p.a, p.d);
  else
    composeDh(t, trig[2], trig[3], trig[0], trig[1], p.a, p.d + q);
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
